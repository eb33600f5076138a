//! Seeded input generators.
//!
//! Every input a workload feeds the program comes from here and depends
//! only on the seed: the XSD document pool of `discover`, the record mix
//! of `stream` and the grid sizes of `fanout`.  Where a property drives
//! cost (types per document, grid size, record kind), the generator
//! stratifies it: each seed draws a different sample from every stratum,
//! so the inputs differ between seeds while their cost profile does not.

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the pools of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A float exactly representable as `f32` (so it survives every
    /// machine model's `xsd:float`).
    pub fn float(&mut self) -> f64 {
        (self.range(0, 1 << 16) as f64 - 32768.0) / 64.0
    }

    /// An arbitrary finite double.
    pub fn double(&mut self) -> f64 {
        (self.unit() - 0.5) * 2.0e3
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// discover: the XSD document pool
// ---------------------------------------------------------------------------

/// One generated metadata document.
#[derive(Debug, Clone, PartialEq)]
pub struct XsdDoc {
    /// Server path the document is published under.
    pub path: String,
    /// The XSD text.
    pub text: String,
    /// Complex types it defines, in document order.
    pub types: Vec<String>,
}

const SCALARS: [&str; 13] = [
    "integer",
    "long",
    "int",
    "short",
    "byte",
    "unsignedLong",
    "unsignedInt",
    "unsignedShort",
    "unsignedByte",
    "nonNegativeInteger",
    "float",
    "double",
    "boolean",
];
const ARRAY_ELEMS: [&str; 5] = ["integer", "int", "short", "float", "double"];
const DYN_ELEMS: [&str; 2] = ["float", "double"];

/// Documents per pool: 16 of each type count 1..=8.
pub const XSD_POOL: usize = 128;

/// The `discover` document pool.  Document `i` defines `1 + i % 8`
/// complex types of 3–40 fields each: scalars of every primitive,
/// strings, static and dynamic arrays, and at most one nested field per
/// type composing an earlier type of the same document.  Field counts
/// are stratified over the pool's types, so every pool holds the same
/// total number of fields.
pub fn xsd_pool(seed: u64) -> Vec<XsdDoc> {
    let mut rng = Rng::new(seed, 1);
    let ntypes: Vec<usize> = (0..XSD_POOL).map(|i| 1 + i % 8).collect();
    let total: usize = ntypes.iter().sum();
    let mut strata: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut strata);
    let span = (MAX_FIELDS - MIN_FIELDS + 1) as f64;
    let mut fields =
        strata.into_iter().map(|k| MIN_FIELDS + (span * k as f64 / total as f64) as usize);
    ntypes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let counts: Vec<usize> = fields.by_ref().take(n).collect();
            xsd_doc(&mut rng, i, &counts)
        })
        .collect()
}

const MIN_FIELDS: usize = 3;
const MAX_FIELDS: usize = 40;

fn xsd_doc(rng: &mut Rng, index: usize, field_counts: &[usize]) -> XsdDoc {
    let mut text = String::from("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n");
    let mut types: Vec<String> = Vec::with_capacity(field_counts.len());
    for (k, &nfields) in field_counts.iter().enumerate() {
        let name = format!("D{index:03}T{k}");
        let _ = writeln!(text, "  <xsd:complexType name=\"{name}\">");
        let mut nested = false;
        for j in 0..nfields {
            let roll = rng.range(0, 99);
            let field = format!("f{j}");
            if roll < 12 && !types.is_empty() && !nested {
                nested = true;
                let inner = &types[rng.range(0, types.len() as u64 - 1) as usize];
                let _ = writeln!(text, "    <xsd:element name=\"{field}\" type=\"{inner}\" />");
            } else if roll < 24 {
                let _ = writeln!(text, "    <xsd:element name=\"{field}\" type=\"xsd:string\" />");
            } else if roll < 36 {
                let elem = ARRAY_ELEMS[rng.range(0, ARRAY_ELEMS.len() as u64 - 1) as usize];
                let n = rng.range(2, 8);
                let _ = writeln!(
                    text,
                    "    <xsd:element name=\"{field}\" type=\"xsd:{elem}\" maxOccurs=\"{n}\" />"
                );
            } else if roll < 46 {
                let elem = DYN_ELEMS[rng.range(0, DYN_ELEMS.len() as u64 - 1) as usize];
                let _ = writeln!(
                    text,
                    "    <xsd:element name=\"{field}\" type=\"xsd:{elem}\" minOccurs=\"0\" \
                     maxOccurs=\"*\" dimensionPlacement=\"before\" dimensionName=\"n{j}\" />"
                );
            } else {
                let prim = SCALARS[rng.range(0, SCALARS.len() as u64 - 1) as usize];
                let _ = writeln!(text, "    <xsd:element name=\"{field}\" type=\"xsd:{prim}\" />");
            }
        }
        text.push_str("  </xsd:complexType>\n");
        types.push(name);
    }
    text.push_str("</xsd:schema>\n");
    XsdDoc { path: format!("/formats/pool/d{index:03}.xsd"), text, types }
}

/// One `discover` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoverOp {
    /// A fresh component joins with document `doc`.
    Join { doc: usize },
    /// The long-lived toolkit revalidates document `doc` (a `304`).
    Revalidate { doc: usize },
}

/// Share of `discover` ops that are revalidations: exactly one in eight.
pub const REVALIDATE_EVERY: usize = 8;

/// The `discover` op sequence, cycled by the client: uniform document
/// choice, and exactly one revalidation in every 8 ops at a seeded slot.
pub fn discover_ops(seed: u64, len: usize) -> Vec<DiscoverOp> {
    let mut rng = Rng::new(seed, 2);
    let mut ops = Vec::with_capacity(len);
    for block in 0..len.div_ceil(REVALIDATE_EVERY) {
        let slot = rng.range(0, REVALIDATE_EVERY as u64 - 1) as usize;
        for i in 0..REVALIDATE_EVERY {
            if block * REVALIDATE_EVERY + i == len {
                break;
            }
            let doc = rng.range(0, XSD_POOL as u64 - 1) as usize;
            ops.push(if i == slot {
                DiscoverOp::Revalidate { doc }
            } else {
                DiscoverOp::Join { doc }
            });
        }
    }
    ops
}

// ---------------------------------------------------------------------------
// stream: the record mix
// ---------------------------------------------------------------------------

/// Hydrology formats carried by `stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Simple,
    Control,
    Grid,
    Flow,
}

impl Kind {
    pub fn type_name(self) -> &'static str {
        match self {
            Kind::Simple => "SimpleData",
            Kind::Control => "ControlMsg",
            Kind::Grid => "GridMetadata",
            Kind::Flow => "FlowField2D",
        }
    }

    /// The field carrying the per-record sequence number.
    pub fn seq_field(self) -> &'static str {
        match self {
            Kind::Simple => "timestep",
            Kind::Control => "deadline",
            Kind::Grid => "seq",
            Kind::Flow => "meta.seq",
        }
    }
}

/// One field value of a generated record.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    /// Element `index` of a static float array.
    F64At(usize, f64),
    F64s(Vec<f64>),
}

/// A generated record: its format, byte order and every field it sets
/// (the sequence field excluded; the sender stamps it per send).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpec {
    pub kind: Kind,
    /// Laid out by a `MachineModel::SPARC32` toolkit (big-endian).
    pub sparc: bool,
    pub fields: Vec<(String, Val)>,
}

/// Records in the `stream` pool (cycled by the sender).
pub const STREAM_POOL: usize = 2048;

/// The `stream` mix: 1% `FlowField2D` grids with stratified sides from
/// 8 to 104 cells (up to ~254 KiB of doubles), and equal numbers of the
/// three small records for the rest (`SimpleData` with 0–8 floats,
/// `ControlMsg`, `GridMetadata`).  Exactly a quarter of every kind is
/// SPARC32.  METRICS.md gives the basis of each share.
pub fn stream_mix(seed: u64) -> Vec<RecordSpec> {
    let mut rng = Rng::new(seed, 3);
    let n = STREAM_POOL;
    let nflow = n / 100;
    let nsmall = (n - nflow) / 3;
    let mut out = Vec::with_capacity(n);
    for (kind, count) in [
        (Kind::Flow, nflow),
        (Kind::Simple, nsmall),
        (Kind::Control, nsmall),
        (Kind::Grid, n - nflow - 2 * nsmall),
    ] {
        let mut sparc: Vec<bool> = (0..count).map(|i| i < count / 4).collect();
        rng.shuffle(&mut sparc);
        for (i, sparc) in sparc.into_iter().enumerate() {
            let fields = match kind {
                Kind::Simple => simple_fields(&mut rng),
                Kind::Control => control_fields(&mut rng),
                Kind::Grid => grid_fields(&mut rng, ""),
                Kind::Flow => {
                    let lo = 8.0;
                    let hi = 104.0;
                    let side = lo + (hi - lo) * (i as f64 + rng.unit()) / count as f64;
                    let side = side as usize;
                    flow_fields(&mut rng, side, side)
                }
            };
            out.push(RecordSpec { kind, sparc, fields });
        }
    }
    rng.shuffle(&mut out);
    out
}

fn simple_fields(rng: &mut Rng) -> Vec<(String, Val)> {
    let len = rng.range(0, 8) as usize;
    vec![("data".to_string(), Val::F64s((0..len).map(|_| rng.float()).collect()))]
}

fn control_fields(rng: &mut Rng) -> Vec<(String, Val)> {
    let mut f = vec![
        ("target".to_string(), Val::Str(format!("component-{}", rng.range(0, 999)))),
        ("command".to_string(), Val::I64(rng.range(1, 2) as i64)),
        ("steps".to_string(), Val::I64(rng.range(0, 1000) as i64)),
        ("priority".to_string(), Val::I64(rng.range(0, 9) as i64)),
        ("flags".to_string(), Val::I64(rng.range(0, 255) as i64)),
        ("note".to_string(), Val::Str("x".repeat(rng.range(0, 24) as usize))),
    ];
    for i in 0..4 {
        f.push(("params".to_string(), Val::F64At(i, rng.float())));
    }
    f
}

const GRID_INTS: [&str; 13] = [
    "nx",
    "ny",
    "nz",
    "timestep",
    "frame_id",
    "layer",
    "bc_north",
    "bc_south",
    "bc_east",
    "bc_west",
    "iterations",
    "solver",
    "precision_flag",
];
const GRID_FLOATS: [&str; 21] = [
    "x_min",
    "x_max",
    "y_min",
    "y_max",
    "z_min",
    "z_max",
    "dx",
    "dy",
    "dz",
    "origin_x",
    "origin_y",
    "velocity_scale",
    "depth_scale",
    "rainfall",
    "evaporation",
    "infiltration",
    "manning_n",
    "cfl",
    "t_start",
    "t_end",
    "dt",
];
const GRID_U64S: [&str; 3] = ["sim_time", "wall_time", "checksum"];

/// Every `GridMetadata` field but `seq`, under `prefix`.
fn grid_fields(rng: &mut Rng, prefix: &str) -> Vec<(String, Val)> {
    let mut f = Vec::with_capacity(37);
    for name in GRID_INTS {
        f.push((format!("{prefix}{name}"), Val::I64(rng.range(0, 1 << 20) as i64)));
    }
    for name in GRID_FLOATS {
        f.push((format!("{prefix}{name}"), Val::F64(rng.float())));
    }
    for name in GRID_U64S {
        f.push((format!("{prefix}{name}"), Val::U64(rng.range(0, u32::MAX as u64))));
    }
    f
}

fn flow_fields(rng: &mut Rng, nx: usize, ny: usize) -> Vec<(String, Val)> {
    let mut f = grid_fields(rng, "meta.");
    let cells = nx * ny;
    f.push(("depth".to_string(), Val::F64s((0..cells).map(|_| rng.double()).collect())));
    f.push(("velocity".to_string(), Val::F64s((0..2 * cells).map(|_| rng.double()).collect())));
    f
}

// ---------------------------------------------------------------------------
// fanout: the grid events
// ---------------------------------------------------------------------------

/// Events in the `fanout` pool (cycled by the publisher).
pub const FANOUT_POOL: usize = 256;

/// One `fanout` event: the flattened `FlowField2D` channel's metadata
/// fields plus an `nx × ny` grid of depths and a `2 · nx · ny` velocity
/// field, all doubles.
#[derive(Debug, Clone, PartialEq)]
pub struct GridEvent {
    pub nx: usize,
    pub ny: usize,
    /// Metadata fields (no `seq`; the publisher stamps it).
    pub meta: Vec<(String, Val)>,
    pub depth: Vec<f64>,
    pub velocity: Vec<f64>,
}

/// The `fanout` events: sides from 8 to 64 each, stratified over the
/// pool so every seed spans the whole range.
pub fn fanout_events(seed: u64) -> Vec<GridEvent> {
    let mut rng = Rng::new(seed, 4);
    let n = FANOUT_POOL;
    let mut sides: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            let side = |rng: &mut Rng| (8.0 + 57.0 * (i as f64 + rng.unit()) / n as f64) as usize;
            (side(&mut rng), side(&mut rng))
        })
        .collect();
    // Decouple nx from ny across the strata.
    let mut ny: Vec<usize> = sides.iter().map(|s| s.1).collect();
    rng.shuffle(&mut ny);
    for (s, y) in sides.iter_mut().zip(ny) {
        s.1 = y;
    }
    rng.shuffle(&mut sides);
    sides
        .into_iter()
        .map(|(nx, ny)| {
            let mut meta = grid_fields(&mut rng, "");
            for (name, v) in meta.iter_mut() {
                match name.as_str() {
                    "nx" => *v = Val::I64(nx as i64),
                    "ny" => *v = Val::I64(ny as i64),
                    _ => {}
                }
            }
            let cells = nx * ny;
            GridEvent {
                nx,
                ny,
                meta,
                depth: (0..cells).map(|_| rng.double()).collect(),
                velocity: (0..2 * cells).map(|_| rng.double()).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_pbio::MachineModel;
    use xmit::Xmit;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(xsd_pool(7), xsd_pool(7));
        assert_eq!(discover_ops(7, 4096), discover_ops(7, 4096));
        assert_eq!(stream_mix(7), stream_mix(7));
        assert_eq!(fanout_events(7), fanout_events(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(xsd_pool(7), xsd_pool(8));
        assert_ne!(discover_ops(7, 4096), discover_ops(8, 4096));
        assert_ne!(stream_mix(7), stream_mix(8));
        assert_ne!(fanout_events(7), fanout_events(8));
    }

    #[test]
    fn every_document_parses_maps_and_binds_on_both_models() {
        for seed in [1, 2, 3] {
            for doc in xsd_pool(seed) {
                for machine in [MachineModel::native(), MachineModel::SPARC32] {
                    let xm = Xmit::new(machine);
                    let names = xm.load_str(&doc.text).unwrap();
                    assert_eq!(names, doc.types, "{}", doc.path);
                    let tokens = xm.bind_all().unwrap();
                    assert_eq!(tokens.len(), doc.types.len(), "{}", doc.path);
                }
            }
        }
    }

    #[test]
    fn pools_have_the_documented_shape() {
        let pool = xsd_pool(3);
        for (i, doc) in pool.iter().enumerate() {
            assert_eq!(doc.types.len(), 1 + i % 8);
        }
        let fields = |pool: &[XsdDoc]| {
            pool.iter().map(|d| d.text.matches("<xsd:element").count()).sum::<usize>()
        };
        assert_eq!(fields(&pool), fields(&xsd_pool(4)));
        let ops = discover_ops(3, 800);
        let reval = ops.iter().filter(|o| matches!(o, DiscoverOp::Revalidate { .. })).count();
        assert_eq!(reval, 100);
        let mix = stream_mix(3);
        assert_eq!(mix.iter().filter(|r| r.kind == Kind::Flow).count(), STREAM_POOL / 100);
        for kind in [Kind::Simple, Kind::Control, Kind::Grid] {
            let small = (STREAM_POOL - STREAM_POOL / 100) / 3;
            assert_eq!(mix.iter().filter(|r| r.kind == kind).count(), small);
        }
        for kind in [Kind::Simple, Kind::Control, Kind::Grid, Kind::Flow] {
            let of_kind: Vec<_> = mix.iter().filter(|r| r.kind == kind).collect();
            assert_eq!(of_kind.iter().filter(|r| r.sparc).count(), of_kind.len() / 4);
        }
        for e in fanout_events(3) {
            assert!((8..=64).contains(&e.nx) && (8..=64).contains(&e.ny));
        }
    }
}
