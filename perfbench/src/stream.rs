//! `stream`: a saturating one-way record stream.
//!
//! One `XmitSender` thread writes records as fast as TCP flow control
//! lets it; one `XmitReceiver` thread (the caller's) reads them over one
//! loopback connection.  Every format is bound, announced and its plans
//! compiled during set-up.  A quarter of the records are laid out by a
//! `MachineModel::SPARC32` toolkit, so the receiver converts them.
//!
//! A saturated sender keeps the socket buffers full, so a record's
//! send-to-receipt time only measures buffer depth.  The latency sample
//! is instead the time the receiving application waits per record: the
//! interval between receipts, averaged over blocks of records.  A single
//! `recv` call's time would depend on where the scheduler switches
//! between sender and receiver (how many records one socket read
//! brings), which moves from run to run while the work per record does
//! not.
//!
//! A failure on either side closes that side's end of the connection,
//! so the other side's blocked `send` or `recv` returns an error.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use openmeta_hydrology::messages::hydrology_schema_xml;
use openmeta_pbio::marshal::parse_header;
use openmeta_pbio::{Encoder, MachineModel, RawRecord};
use xmit::{BindingToken, Xmit, XmitReceiver, XmitSender};

use crate::gen::{self, Kind, RecordSpec, Val};
use crate::procfs::ProcSample;
use crate::report::{note_error, LatencyFigure, MarshalSample, Stages, Window};
use crate::trace::Recorder;

/// Records received untimed at the start of every window, so the sender
/// is ahead and the socket buffers are full when timing starts.
const WINDOW_WARMUP: u64 = 4096;

/// Records per receive-interval sample.  The process switches threads
/// about once per 650 records, so each block spans several switches.
const INTERVAL_RECORDS: u64 = 4096;

/// Pool entries whose every field is compared (one in this many);
/// the others are checked by format and sequence number.
const FULL_CHECK_EVERY: usize = 16;

/// Sender side of one pool entry.
struct Item {
    rec: RawRecord,
    kind: Kind,
}

/// Receiver side of one pool entry.
struct Expect {
    kind: Kind,
    sparc: bool,
    /// Native payload bytes (the wire's data section, header excluded).
    payload: u64,
    /// Every field, for the full-check sample.
    fields: Option<Vec<(String, Val)>>,
}

pub struct Stream {
    tx: Option<XmitSender>,
    /// `None` once a receive failed.
    rx: Option<XmitReceiver>,
    items: Vec<Item>,
    expect: Vec<Expect>,
    next_send: u64,
    next_recv: u64,
}

fn tokens(machine: MachineModel) -> Result<Vec<BindingToken>, String> {
    let xm = Xmit::new(machine);
    xm.load_str(&hydrology_schema_xml()).map_err(|e| e.to_string())?;
    xm.bind_all().map_err(|e| e.to_string())
}

fn token(tokens: &[BindingToken], kind: Kind) -> &BindingToken {
    tokens
        .iter()
        .find(|t| t.type_name == kind.type_name())
        .expect("the hydrology schema defines every stream kind")
}

/// Build a record of `token`'s format holding `fields`.
pub fn build(token: &BindingToken, fields: &[(String, Val)]) -> Result<RawRecord, String> {
    let mut rec = token.new_record();
    build_fields(&mut rec, fields)?;
    Ok(rec)
}

/// Set every one of `fields` on `rec`.
pub fn build_fields(rec: &mut RawRecord, fields: &[(String, Val)]) -> Result<(), String> {
    for (path, v) in fields {
        let r = match v {
            Val::I64(x) => rec.set_i64(path, *x),
            Val::U64(x) => rec.set_u64(path, *x),
            Val::F64(x) => rec.set_f64(path, *x),
            Val::Str(s) => rec.set_string(path, s.as_str()),
            Val::F64At(i, x) => rec.set_elem_f64(path, *i, *x),
            Val::F64s(xs) => rec.set_f64_array(path, xs),
        };
        r.map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Compare every field of `rec` with `fields`.
pub fn check_fields(rec: &RawRecord, fields: &[(String, Val)]) -> Result<(), String> {
    for (path, want) in fields {
        let same = match want {
            Val::I64(x) => rec.get_i64(path).map(|v| v == *x),
            Val::U64(x) => rec.get_u64(path).map(|v| v == *x),
            Val::F64(x) => rec.get_f64(path).map(|v| v.to_bits() == x.to_bits()),
            Val::Str(s) => rec.get_string(path).map(|v| v == s),
            Val::F64At(i, x) => rec.get_elem_f64(path, *i).map(|v| v.to_bits() == x.to_bits()),
            Val::F64s(xs) => rec.get_f64_array(path).map(|v| {
                v.len() == xs.len() && v.iter().zip(xs).all(|(a, b)| a.to_bits() == b.to_bits())
            }),
        };
        match same {
            Ok(true) => {}
            Ok(false) => return Err(format!("field {path} differs")),
            Err(e) => return Err(format!("field {path}: {e}")),
        }
    }
    Ok(())
}

fn set_seq(rec: &mut RawRecord, kind: Kind, seq: u64) -> Result<(), String> {
    rec.set_u64(kind.seq_field(), seq).map_err(|e| e.to_string())
}

impl Stream {
    /// Bind every format on both machine models, build the seeded pool,
    /// connect, and stream one full cycle of the pool untimed.
    pub fn setup(seed: u64) -> Result<Stream, String> {
        let native = tokens(MachineModel::native())?;
        let sparc = tokens(MachineModel::SPARC32)?;
        let receiver = Xmit::new(MachineModel::native());
        receiver.load_str(&hydrology_schema_xml()).map_err(|e| e.to_string())?;
        receiver.bind_all().map_err(|e| e.to_string())?;

        let mut enc = Encoder::new();
        let mut items = Vec::with_capacity(gen::STREAM_POOL);
        let mut expect = Vec::with_capacity(gen::STREAM_POOL);
        for (i, RecordSpec { kind, sparc: big_endian, fields }) in
            gen::stream_mix(seed).into_iter().enumerate()
        {
            let twin = build(token(&native, kind), &fields)?;
            let wire = enc.encode(&twin).map_err(|e| e.to_string())?;
            let payload = parse_header(wire).map_err(|e| e.to_string())?.data_size as u64;
            let rec = if big_endian { build(token(&sparc, kind), &fields)? } else { twin };
            items.push(Item { rec, kind });
            let fields = (i % FULL_CHECK_EVERY == 0).then_some(fields);
            expect.push(Expect { kind, sparc: big_endian, payload, fields });
        }

        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let tx = XmitSender::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (conn, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let rx = Some(XmitReceiver::new(conn, receiver.registry().clone()));
        let mut s = Stream { tx: Some(tx), rx, items, expect, next_send: 0, next_recv: 0 };
        let w = s.run(gen::STREAM_POOL as u64, 0.0, false);
        match w.errors.first() {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(s),
        }
    }

    pub fn window(&mut self, seconds: f64, trace: bool) -> Window {
        self.run(WINDOW_WARMUP, seconds, trace)
    }

    /// Receive `warm` records untimed, then time `seconds`, then stop the
    /// sender and drain everything it sent (checked, untimed).
    fn run(&mut self, warm: u64, seconds: f64, trace: bool) -> Window {
        let stop = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        let sent = AtomicU64::new(self.next_send);
        let Stream { tx, rx, items, expect, next_send, next_recv } = self;
        let was_broken = rx.is_none();
        let mut tally = Tally::default();

        let (mut w, sent_by) = thread::scope(|scope| {
            let send_thread = scope.spawn(|| {
                let mut rec = Recorder::for_window(trace);
                let mut err = None;
                let Some(sender) = tx.as_mut().filter(|_| !was_broken) else {
                    done.store(true, Ordering::Release);
                    return (rec, err);
                };
                while !stop.load(Ordering::Acquire) {
                    let seq = *next_send;
                    let pool = items.len() as u64;
                    let item = &mut items[(seq % pool) as usize];
                    if let Err(e) = set_seq(&mut item.rec, item.kind, seq) {
                        err = Some(e);
                        break;
                    }
                    // Announce the record before sending it: a large one
                    // only fits once the receiver reads part of it.
                    sent.store(seq + 1, Ordering::Release);
                    let root = rec.begin_op(seq);
                    let large = item.kind == Kind::Flow;
                    let span = rec.open(if large { "xmit.send.large" } else { "xmit.send.small" });
                    let r = sender.send(&item.rec);
                    rec.close(span);
                    rec.end_op(root);
                    if let Err(e) = r {
                        err = Some(format!("send #{seq}: {e}"));
                        break;
                    }
                    *next_send += 1;
                }
                if err.is_some() {
                    // Close the connection so the receiver sees the end
                    // instead of waiting for records that never come.
                    *tx = None;
                }
                done.store(true, Ordering::Release);
                (rec, err)
            });

            let mut rx_side = RxSide { rx, expect, next_recv };
            let mut off = Recorder::off();
            for _ in 0..warm {
                if !rx_side.ok() {
                    break;
                }
                rx_side.recv_one(&mut off, &mut tally);
            }

            let stages_before = Stages::read();
            let marshal_before = MarshalSample::read();
            let proc_before = ProcSample::read();
            let mut rec = Recorder::for_window(trace);
            let mut latencies_ms = Vec::with_capacity(1 << 14);
            let (mut ops, mut payload_bytes) = (0u64, 0u64);
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(seconds);
            let mut block_start = start;
            while rx_side.ok() && Instant::now() < end {
                if let Some(bytes) = rx_side.recv_one(&mut rec, &mut tally) {
                    ops += 1;
                    payload_bytes += bytes;
                    if ops.is_multiple_of(INTERVAL_RECORDS) {
                        let now = Instant::now();
                        let block_ms = (now - block_start).as_secs_f64() * 1e3;
                        latencies_ms.push(block_ms / INTERVAL_RECORDS as f64);
                        block_start = now;
                    }
                }
            }
            let elapsed_s = start.elapsed().as_secs_f64();
            let proc_after = ProcSample::read();
            let layer = MarshalSample::read().per_op(&marshal_before, ops);
            let stages_after = Stages::read();

            // Stop the sender; read (and check) whatever it already sent.
            stop.store(true, Ordering::Release);
            while rx_side.ok() {
                if *rx_side.next_recv < sent.load(Ordering::Acquire) {
                    rx_side.recv_one(&mut off, &mut tally);
                } else if done.load(Ordering::Acquire) {
                    if *rx_side.next_recv >= sent.load(Ordering::Acquire) {
                        break;
                    }
                } else {
                    thread::yield_now();
                }
            }
            let sent_by = send_thread.join();
            let w = Window {
                ops,
                attempted: 0,
                failed: 0,
                elapsed_s,
                latencies_ms,
                payload_bytes,
                latency_figure: LatencyFigure::FastMean,
                proc_before,
                proc_after,
                stages_before,
                stages_after,
                recorders: vec![rec],
                layer,
                errors: Vec::new(),
            };
            (w, sent_by)
        });
        match sent_by {
            Ok((rec, err)) => {
                w.recorders.push(rec);
                if let Some(e) = err {
                    tally.fail(e);
                }
            }
            Err(_) => tally.fail("sender thread panicked".to_string()),
        }
        w.attempted = tally.attempted;
        w.failed = tally.failed;
        w.errors = tally.errors;
        w
    }

    /// Close the connection and check the receiver sees a clean end of
    /// stream with nothing left over.
    pub fn finish(mut self) -> (u64, Vec<String>) {
        drop(self.tx.take());
        let Some(rx) = self.rx.as_mut() else { return (0, Vec::new()) };
        match rx.recv() {
            Ok(None) => (0, Vec::new()),
            Ok(Some(r)) => {
                (1, vec![format!("unexpected record {} after the end", r.format().name)])
            }
            Err(e) => (1, vec![format!("closing the stream: {e}")]),
        }
    }
}

/// Attempts, failures and their first messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        note_error(&mut self.errors, || msg);
    }
}

/// The receiving half of a run.
struct RxSide<'a> {
    /// Dropped on a failed receive: closing the socket with bytes unread
    /// resets the connection, which fails a sender blocked in `send`.
    rx: &'a mut Option<XmitReceiver>,
    expect: &'a [Expect],
    next_recv: &'a mut u64,
}

impl RxSide<'_> {
    fn ok(&self) -> bool {
        self.rx.is_some()
    }

    /// Receive and check one record; its payload bytes when it passed.
    fn recv_one(&mut self, rec: &mut Recorder, tally: &mut Tally) -> Option<u64> {
        let seq = *self.next_recv;
        *self.next_recv += 1;
        tally.attempted += 1;
        let e = &self.expect[(seq % self.expect.len() as u64) as usize];
        let name = if e.sparc {
            "xmit.recv.convert"
        } else if e.kind == Kind::Flow {
            "xmit.recv.large"
        } else {
            "xmit.recv.small"
        };
        let root = rec.begin_op(seq);
        let span = rec.open(name);
        let got = match self.rx.as_mut() {
            Some(rx) => rx.recv(),
            None => Ok(None),
        };
        rec.close(span);
        let checked = match got {
            Ok(Some(r)) => check(&r, e, seq),
            Ok(None) => {
                *self.rx = None;
                Err(format!("record #{seq}: connection closed"))
            }
            Err(err) => {
                *self.rx = None;
                Err(format!("record #{seq}: {err}"))
            }
        };
        rec.end_op(root);
        match checked {
            Ok(()) => Some(e.payload),
            Err(msg) => {
                tally.fail(msg);
                None
            }
        }
    }
}

/// Check a received record's format, byte order, sequence number and,
/// for the sampled entries, every field.
fn check(r: &RawRecord, e: &Expect, seq: u64) -> Result<(), String> {
    let fmt = r.format();
    if fmt.name != e.kind.type_name() {
        return Err(format!("record #{seq}: format {}, expected {}", fmt.name, e.kind.type_name()));
    }
    if fmt.machine != MachineModel::native() {
        return Err(format!("record #{seq}: not converted to the native layout"));
    }
    match r.get_u64(e.kind.seq_field()) {
        Ok(v) if v == seq => {}
        other => return Err(format!("record #{seq}: sequence field reads {other:?}")),
    }
    match &e.fields {
        Some(fields) => check_fields(r, fields).map_err(|m| format!("record #{seq}: {m}")),
        None => Ok(()),
    }
}
