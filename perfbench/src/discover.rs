//! `discover`: components joining with run-time metadata.
//!
//! Closed loop, one client thread.  Most ops are a component *join*: a
//! fresh toolkit (sharing one [`StandardSource`], so the HTTP keep-alive
//! pool outlives joins) loads one XSD document from the metadata server,
//! binds every type, publishes every format to the format server, has a
//! receiver-side client resolve one id into an empty registry, and
//! encodes one first record per bound format.  One op in eight is a
//! *revalidation*: a long-lived toolkit re-checks a loaded URL and gets a
//! `304`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmeta_ohttp::{HttpServer, StandardSource};
use openmeta_pbio::marshal::parse_header;
use openmeta_pbio::server::{FormatServer, FormatServerClient};
use openmeta_pbio::{Encoder, FormatId, FormatRegistry, MachineModel};
use xmit::{LoadOutcome, Xmit};

use crate::gen::{self, DiscoverOp, XsdDoc};
use crate::procfs::ProcSample;
use crate::report::{note_error, ratio, LatencyFigure, MarshalSample, Stages, Window};
use crate::trace::Recorder;

/// Ops run during set-up, before any timed op.
const WARMUP_OPS: u64 = 64;

/// Length of the cycled op sequence.
const OP_SEQUENCE: usize = 1 << 16;

/// Counters accumulated per op from the public stats accessors of the
/// short-lived toolkits (their registries die with them).
#[derive(Default)]
struct Accum {
    plan_cache_misses: u64,
    schema_hits: u64,
    schema_loads: u64,
}

pub struct Discover {
    http: HttpServer,
    formats: FormatServer,
    docs: Vec<XsdDoc>,
    urls: Vec<String>,
    /// Per document: type name → content id, computed at set-up.
    expected: Vec<BTreeMap<String, FormatId>>,
    ops: Vec<DiscoverOp>,
    next: u64,
    source: Arc<StandardSource>,
    revalidator: Xmit,
    receiver: FormatServerClient,
}

impl Discover {
    /// Start both servers, publish the seeded document pool, compute the
    /// expected ids and warm up.
    pub fn setup(seed: u64) -> Result<Discover, String> {
        let docs = gen::xsd_pool(seed);
        let http = HttpServer::start().map_err(|e| format!("http server: {e}"))?;
        let formats = FormatServer::start().map_err(|e| format!("format server: {e}"))?;
        let mut urls = Vec::with_capacity(docs.len());
        let mut expected = Vec::with_capacity(docs.len());
        for doc in &docs {
            http.put_xml(&doc.path, doc.text.as_str());
            urls.push(http.url_for(&doc.path));
            let xm = Xmit::new(MachineModel::native());
            xm.load_str(&doc.text).map_err(|e| format!("{}: {e}", doc.path))?;
            let tokens = xm.bind_all().map_err(|e| format!("{}: {e}", doc.path))?;
            expected.push(tokens.iter().map(|t| (t.type_name.clone(), t.id())).collect());
        }
        let source = Arc::new(StandardSource::new());
        let revalidator = Xmit::with_source(MachineModel::native(), source.clone());
        for url in &urls {
            revalidator.load_url(url).map_err(|e| format!("{url}: {e}"))?;
        }
        let receiver = FormatServerClient::connect(formats.addr());
        let mut d = Discover {
            http,
            formats,
            docs,
            urls,
            expected,
            ops: gen::discover_ops(seed, OP_SEQUENCE),
            next: 0,
            source,
            revalidator,
            receiver,
        };
        let mut acc = Accum::default();
        let mut off = Recorder::off();
        for _ in 0..WARMUP_OPS {
            d.op(&mut off, &mut acc)?;
        }
        Ok(d)
    }

    /// One op; returns the document bytes it discovered.
    fn op(&mut self, rec: &mut Recorder, acc: &mut Accum) -> Result<u64, String> {
        let i = self.next;
        self.next += 1;
        match self.ops[i as usize % self.ops.len()] {
            DiscoverOp::Join { doc } => self.join(i, doc, rec, acc),
            DiscoverOp::Revalidate { doc } => {
                let url = &self.urls[doc];
                let span = rec.open("xmit.revalidate");
                let out = self.revalidator.revalidate(url);
                rec.close(span);
                match out.map_err(|e| format!("revalidate {url}: {e}"))? {
                    LoadOutcome::Revalidated(names) if names == self.docs[doc].types => Ok(0),
                    other => Err(format!("revalidate {url}: expected a 304, got {other:?}")),
                }
            }
        }
    }

    fn join(&self, i: u64, doc: usize, rec: &mut Recorder, acc: &mut Accum) -> Result<u64, String> {
        let url = &self.urls[doc];
        let expected = &self.expected[doc];
        let tk = Xmit::with_source(MachineModel::native(), self.source.clone());
        tk.attach_format_server(self.formats.addr());

        let span = rec.open("xmit.load_url");
        let names = tk.load_url(url);
        rec.close(span);
        let names = names.map_err(|e| format!("load {url}: {e}"))?;
        if names != self.docs[doc].types {
            return Err(format!(
                "load {url}: types {names:?}, expected {:?}",
                self.docs[doc].types
            ));
        }

        let span = rec.open("xmit.bind_all");
        let tokens = tk.bind_all();
        rec.close(span);
        let tokens = tokens.map_err(|e| format!("bind {url}: {e}"))?;
        if tokens.len() != expected.len() {
            return Err(format!(
                "bind {url}: {} tokens, expected {}",
                tokens.len(),
                expected.len()
            ));
        }
        for t in &tokens {
            if expected.get(&t.type_name) != Some(&t.id()) {
                return Err(format!("bind {url}: {} has id {:?}", t.type_name, t.id()));
            }
            let span = rec.open("xmit.publish_format");
            let published = tk.publish_format(t);
            rec.close(span);
            let published = published.map_err(|e| format!("publish {}: {e}", t.type_name))?;
            if published != t.id() {
                return Err(format!("publish {}: server id {published:?}", t.type_name));
            }
        }

        let pick = &tokens[i as usize % tokens.len()];
        let registry = FormatRegistry::new(MachineModel::native());
        let span = rec.open("pbio.server.resolve");
        let resolved = self.receiver.resolve_into(pick.id(), &registry);
        rec.close(span);
        let resolved = resolved.map_err(|e| format!("resolve {}: {e}", pick.type_name))?;
        if *resolved != *pick.format {
            return Err(format!(
                "resolve {}: descriptor differs from the published one",
                pick.type_name
            ));
        }

        let mut enc = Encoder::new();
        for t in &tokens {
            let record = t.new_record();
            let span = rec.open("pbio.encode_first");
            let header = enc.encode(&record).map(parse_header);
            rec.close(span);
            match header {
                Ok(Ok(h)) if h.format_id == t.id() => {}
                other => return Err(format!("encode {}: {other:?}", t.type_name)),
            }
        }

        acc.plan_cache_misses += tk.registry().plan_cache_stats().misses;
        let cache = tk.schema_cache_stats();
        acc.schema_hits += cache.hits();
        acc.schema_loads += cache.hits() + cache.misses;
        Ok(self.docs[doc].text.len() as u64)
    }

    /// Run ops back to back for `seconds`.
    pub fn window(&mut self, seconds: f64, trace: bool) -> Window {
        let mut rec = Recorder::for_window(trace);
        let mut acc = Accum::default();
        let mut latencies_ms = Vec::with_capacity(1 << 16);
        let mut errors = Vec::new();
        let (mut ops, mut attempted, mut failed, mut payload_bytes) = (0u64, 0u64, 0u64, 0u64);
        self.revalidator.reset_schema_cache_stats();
        let pool_before = self.source.pool_stats();
        let accepted_before = self.accepted();
        let stages_before = Stages::read();
        let marshal_before = MarshalSample::read();
        let proc_before = ProcSample::read();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            let root = rec.begin_op(self.next);
            let t = Instant::now();
            let r = self.op(&mut rec, &mut acc);
            let lat = t.elapsed();
            rec.end_op(root);
            attempted += 1;
            match r {
                Ok(bytes) => {
                    ops += 1;
                    payload_bytes += bytes;
                    latencies_ms.push(lat.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    failed += 1;
                    note_error(&mut errors, || e);
                }
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let proc_after = ProcSample::read();
        let stages_after = Stages::read();
        let pool = self.source.pool_stats();
        let requests = pool.requests - pool_before.requests;
        let reuses = pool.reuses - pool_before.reuses;
        let reval = self.revalidator.schema_cache_stats();
        let schema_hits = acc.schema_hits + reval.hits();
        let schema_loads = acc.schema_loads + reval.hits() + reval.misses;
        let n = ops.max(1) as f64;
        let mut layer = MarshalSample::read().per_op(&marshal_before, ops);
        layer.extend([
            ("pbio.plan_cache.miss_per_op", acc.plan_cache_misses as f64 / n),
            ("net.accepted_per_op", (self.accepted() - accepted_before) as f64 / n),
            ("ohttp.pool.reuse_ratio", ratio(reuses, requests)),
            ("ohttp.pool.requests", requests as f64),
            ("xmit.schema_cache.hit_ratio", ratio(schema_hits, schema_loads)),
            ("xmit.schema_cache.loads", schema_loads as f64),
        ]);
        Window {
            ops,
            attempted,
            failed,
            elapsed_s,
            latencies_ms,
            payload_bytes,
            latency_figure: LatencyFigure::Median,
            proc_before,
            proc_after,
            stages_before,
            stages_after,
            recorders: vec![rec],
            layer,
            errors,
        }
    }

    /// Connections both servers have accepted.
    fn accepted(&self) -> u64 {
        self.formats.transport_counters().accepted + self.http.transport_counters().accepted
    }
}
