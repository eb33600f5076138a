//! Binary (de)serialization of format descriptors.
//!
//! Descriptors must themselves cross the network — that is how a receiver
//! that sees an unknown [`crate::format::FormatId`] fetches the metadata
//! from a format server.  The encoding here is PBIO-independent, fixed
//! big-endian, and recursive for nested formats.  It is also the canonical
//! byte string that format ids are hashed over, so it must be deterministic.
//!
//! Decoding accepts only canonical bytes: every value read is one that
//! [`encode_descriptor`] would write back unchanged, so
//! `encode(decode(b)) == b` for every accepted `b`.  That is what lets
//! the decoder take each level's id straight from the bytes it consumed
//! (one FNV-1a pass, no re-encode), and what lets the format server treat
//! a byte-identical registration as already validated.  Nesting is capped
//! at [`MAX_NESTING`] levels, so a peer cannot drive the recursion deep.

use std::sync::Arc;

use crate::error::PbioError;
use crate::format::{fnv1a_64, FormatDescriptor, FormatId, MAX_NESTING};
use crate::layout::FieldLayout;
use crate::machine::MachineModel;
use crate::types::{BaseType, FieldKind};

const KIND_SCALAR: u8 = 0;
const KIND_STRING: u8 = 1;
const KIND_STATIC: u8 = 2;
const KIND_DYNAMIC: u8 = 3;
const KIND_NESTED: u8 = 4;

/// Serialize a descriptor to its canonical byte string.
pub fn encode_descriptor(d: &FormatDescriptor) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + d.fields.len() * 24);
    write_descriptor(d, &mut out);
    out
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "name too long for descriptor codec");
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn write_descriptor(d: &FormatDescriptor, out: &mut Vec<u8>) {
    write_str(&d.name, out);
    out.extend_from_slice(&d.machine.tag().to_be_bytes());
    out.extend_from_slice(&(d.record_size as u32).to_be_bytes());
    out.push(d.align as u8);
    out.extend_from_slice(&(d.fields.len() as u16).to_be_bytes());
    for f in &d.fields {
        write_str(&f.name, out);
        out.extend_from_slice(&(f.offset as u32).to_be_bytes());
        out.extend_from_slice(&(f.size as u32).to_be_bytes());
        out.push(f.align as u8);
        match &f.kind {
            FieldKind::Scalar(b) => {
                out.push(KIND_SCALAR);
                out.push(b.code());
            }
            FieldKind::String => out.push(KIND_STRING),
            FieldKind::StaticArray { elem, elem_size, count } => {
                out.push(KIND_STATIC);
                out.push(elem.code());
                out.extend_from_slice(&(*elem_size as u16).to_be_bytes());
                out.extend_from_slice(&(*count as u32).to_be_bytes());
            }
            FieldKind::DynamicArray { elem, elem_size, length_field } => {
                out.push(KIND_DYNAMIC);
                out.push(elem.code());
                out.extend_from_slice(&(*elem_size as u16).to_be_bytes());
                write_str(length_field, out);
            }
            FieldKind::Nested(sub) => {
                out.push(KIND_NESTED);
                write_descriptor(sub, out);
            }
        }
    }
}

/// Cursor over descriptor bytes, carrying the nesting depth of the level
/// being read.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PbioError> {
        if self.pos + n > self.buf.len() {
            return Err(PbioError::BadWireData("truncated descriptor".to_string()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PbioError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PbioError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, PbioError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn str(&mut self) -> Result<String, PbioError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PbioError::BadWireData("descriptor name is not UTF-8".to_string()))
    }
}

/// Deserialize a descriptor produced by [`encode_descriptor`].
pub fn decode_descriptor(bytes: &[u8]) -> Result<FormatDescriptor, PbioError> {
    let mut cur = Cur { buf: bytes, pos: 0, depth: 0 };
    let d = read_descriptor(&mut cur)?;
    if cur.pos != bytes.len() {
        return Err(PbioError::BadWireData(format!(
            "{} trailing bytes after descriptor",
            bytes.len() - cur.pos
        )));
    }
    Ok(d)
}

fn read_descriptor(cur: &mut Cur<'_>) -> Result<FormatDescriptor, PbioError> {
    let start = cur.pos;
    let name = cur.str()?;
    let tag = cur.u32()?;
    let machine = MachineModel::from_tag(tag);
    if machine.tag() != tag {
        return Err(PbioError::BadWireData(format!("machine tag {tag:#x} has stray bits")));
    }
    let record_size = cur.u32()? as usize;
    let align = cur.u8()? as usize;
    let nfields = cur.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1024));
    for _ in 0..nfields {
        let fname = cur.str()?;
        let offset = cur.u32()? as usize;
        let size = cur.u32()? as usize;
        let falign = cur.u8()? as usize;
        let kind = match cur.u8()? {
            KIND_SCALAR => FieldKind::Scalar(base(cur.u8()?)?),
            KIND_STRING => FieldKind::String,
            KIND_STATIC => {
                let elem = base(cur.u8()?)?;
                let elem_size = cur.u16()? as usize;
                let count = cur.u32()? as usize;
                FieldKind::StaticArray { elem, elem_size, count }
            }
            KIND_DYNAMIC => {
                let elem = base(cur.u8()?)?;
                let elem_size = cur.u16()? as usize;
                let length_field = cur.str()?;
                FieldKind::DynamicArray { elem, elem_size, length_field }
            }
            KIND_NESTED => {
                if cur.depth == MAX_NESTING {
                    return Err(PbioError::BadWireData(format!(
                        "descriptor nests deeper than {MAX_NESTING} levels"
                    )));
                }
                cur.depth += 1;
                let sub = read_descriptor(cur)?;
                cur.depth -= 1;
                FieldKind::Nested(Arc::new(sub))
            }
            other => {
                return Err(PbioError::BadWireData(format!("unknown field kind code {other}")))
            }
        };
        fields.push(FieldLayout { name: fname, kind, offset, size, align: falign });
    }
    // Canonical decoding makes this level's bytes its encoding, so the
    // content id is their hash: no re-encode of the subtree.
    let id = FormatId(fnv1a_64(&cur.buf[start..cur.pos]));
    let d = FormatDescriptor { name, machine, fields, record_size, align, id };
    debug_assert_eq!(d.id, d.computed_id(), "descriptor decode is not canonical");
    Ok(d)
}

fn base(code: u8) -> Result<BaseType, PbioError> {
    BaseType::from_code(code)
        .ok_or_else(|| PbioError::BadWireData(format!("unknown base type code {code}")))
}

/// Hand-built canonical bytes of a chain with `depth` nesting levels
/// (`depth + 1` one-field records), for exercising the depth cap with
/// inputs `resolve` refuses to build.  About 27 bytes per level.
#[cfg(test)]
pub(crate) fn nested_chain_bytes(depth: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(27 * (depth + 1));
    for level in 0..=depth {
        write_str("L", &mut out);
        out.extend_from_slice(&MachineModel::SPARC32.tag().to_be_bytes());
        out.extend_from_slice(&4u32.to_be_bytes()); // record size
        out.push(4); // align
        out.extend_from_slice(&1u16.to_be_bytes()); // one field
        write_str("x", &mut out);
        out.extend_from_slice(&0u32.to_be_bytes()); // offset
        out.extend_from_slice(&4u32.to_be_bytes()); // size
        out.push(4); // align
        if level < depth {
            out.push(KIND_NESTED);
        } else {
            out.extend_from_slice(&[KIND_SCALAR, BaseType::Integer.code()]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use std::time::{Duration, Instant};

    fn sample() -> FormatDescriptor {
        let inner = Arc::new(
            FormatDescriptor::resolve(
                &FormatSpec::new("Inner", vec![IOField::auto("a", "integer", 4)]),
                MachineModel::SPARC32,
                &|_| None,
            )
            .unwrap(),
        );
        let r = move |n: &str| (n == "Inner").then(|| inner.clone());
        FormatDescriptor::resolve(
            &FormatSpec::new(
                "Outer",
                vec![
                    IOField::auto("hdr", "Inner", 0),
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", 8),
                    IOField::auto("tag", "char[7]", 1),
                    IOField::auto("who", "string", 0),
                    IOField::auto("flag", "boolean", 4),
                ],
            ),
            MachineModel::SPARC32,
            &r,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample();
        let bytes = encode_descriptor(&d);
        let back = decode_descriptor(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.id(), d.id());
    }

    #[test]
    fn deterministic_encoding() {
        let d = sample();
        assert_eq!(encode_descriptor(&d), encode_descriptor(&d));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_descriptor(&sample());
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_descriptor(&bytes[..cut]).is_err(),
                "truncation at {cut} must be detected"
            );
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_descriptor(&sample());
        bytes.push(0);
        assert!(decode_descriptor(&bytes).is_err());
    }

    #[test]
    fn corrupt_kind_code_detected() {
        let d = FormatDescriptor::resolve(
            &FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)]),
            MachineModel::SPARC32,
            &|_| None,
        )
        .unwrap();
        let mut bytes = encode_descriptor(&d);
        // The kind code is the byte right before the final base-type code.
        let n = bytes.len();
        bytes[n - 2] = 200;
        assert!(decode_descriptor(&bytes).is_err());
    }

    #[test]
    fn decoded_ids_hash_the_wire_bytes_at_every_level() {
        let bytes = encode_descriptor(&sample());
        let back = decode_descriptor(&bytes).unwrap();
        assert_eq!(back.id(), FormatId(fnv1a_64(&bytes)));
        let FieldKind::Nested(inner) = &back.fields[0].kind else { panic!("hdr is nested") };
        assert_eq!(inner.id(), FormatId(fnv1a_64(&encode_descriptor(inner))));
    }

    #[test]
    fn machine_tag_with_stray_bits_is_rejected() {
        let d = sample();
        let at = 2 + d.name.len(); // name length prefix + name, then the tag
        for stray in [1u32 << 1, 1 << 3, 1 << 28, 1 << 31] {
            let mut bytes = encode_descriptor(&d);
            let tag = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) | stray;
            bytes[at..at + 4].copy_from_slice(&tag.to_be_bytes());
            assert!(
                matches!(decode_descriptor(&bytes), Err(PbioError::BadWireData(_))),
                "stray tag bit {stray:#x} must be rejected"
            );
        }
    }

    /// Best of five decodes of `bytes` on a thread with a 2 MiB stack
    /// (the default for spawned threads), with the decode's result.
    fn decode_on_small_stack(bytes: Vec<u8>) -> (Result<FormatDescriptor, PbioError>, Duration) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut best = Duration::MAX;
                let mut result = None;
                for _ in 0..5 {
                    let start = Instant::now();
                    let r = decode_descriptor(&bytes);
                    best = best.min(start.elapsed());
                    result = Some(r);
                }
                (result.unwrap(), best)
            })
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn ten_thousand_level_chain_is_rejected_quickly() {
        let bytes = nested_chain_bytes(10_000);
        assert!(bytes.len() > 250_000);
        let (result, took) = decode_on_small_stack(bytes);
        assert!(matches!(result, Err(PbioError::BadWireData(_))), "{result:?}");
        assert!(took < Duration::from_millis(1), "took {took:?}");
    }

    #[test]
    fn twenty_six_hundred_level_chain_is_rejected_quickly() {
        let bytes = nested_chain_bytes(2_600);
        assert!(bytes.len() > 65_000);
        let (result, took) = decode_on_small_stack(bytes);
        assert!(matches!(result, Err(PbioError::BadWireData(_))), "{result:?}");
        assert!(took < Duration::from_millis(1), "took {took:?}");
    }

    /// A chain of resolved formats `L0` (flat) … `L{depth}`, each nesting
    /// the previous one; `Err` from the first level `resolve` refuses.
    fn resolved_chain(depth: usize) -> Result<FormatDescriptor, PbioError> {
        let mut prev = FormatDescriptor::resolve(
            &FormatSpec::new("L0", vec![IOField::auto("x", "integer", 4)]),
            MachineModel::SPARC32,
            &|_| None,
        )?;
        for level in 1..=depth {
            let inner = Arc::new(prev);
            let inner_name = inner.name.clone();
            let r = move |n: &str| (n == inner_name).then(|| inner.clone());
            let spec = FormatSpec::new(
                format!("L{level}"),
                vec![IOField::auto("n", format!("L{}", level - 1), 0)],
            );
            prev = FormatDescriptor::resolve(&spec, MachineModel::SPARC32, &r)?;
        }
        Ok(prev)
    }

    #[test]
    fn max_nesting_deep_format_round_trips() {
        let d = resolved_chain(MAX_NESTING).unwrap();
        assert_eq!(d.nesting_depth(), MAX_NESTING);
        let bytes = encode_descriptor(&d);
        assert_eq!(decode_descriptor(&bytes).unwrap(), d);
        assert!(decode_descriptor(&nested_chain_bytes(MAX_NESTING)).is_ok());
    }

    #[test]
    fn one_level_past_max_nesting_is_rejected_by_resolve_and_decode() {
        assert!(matches!(resolved_chain(MAX_NESTING + 1), Err(PbioError::BadField { .. })));
        assert!(matches!(
            decode_descriptor(&nested_chain_bytes(MAX_NESTING + 1)),
            Err(PbioError::BadWireData(_))
        ));
    }
}
