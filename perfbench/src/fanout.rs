//! `fanout`: an open-loop ECho channel with two views.
//!
//! One publisher thread publishes `FlowField2D` events at a fixed rate,
//! sleeping until each is due; latency is timed from the due time, so a
//! stall counts against every event queued behind it.  One reader thread
//! (the caller's) alternates `recv` over two subscriber connections: the
//! identity view and a metadata-only projection.  The host runs the
//! shipped `ChannelConfig::default()`.
//!
//! A failure never leaves a thread waiting on another.  When a
//! subscriber connection breaks, the reader drops both subscribers, so
//! the host's writers fail and a publisher blocked on a full seat queue
//! moves on.  When the reader still waits after publishing ended (an
//! event went missing, or `publish` failed), the publisher shuts the
//! host down, so the subscribers read the end of the stream.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use openmeta_echo::{Channel, ChannelConfig, ChannelHost, ChannelSubscriber, Projection};
use openmeta_hydrology::messages::hydrology_schema_xml;
use openmeta_pbio::marshal::parse_header;
use openmeta_pbio::{Encoder, RawRecord};
use openmeta_schema::{parse_str, ComplexType, TypeRef};

use crate::gen::{self, GridEvent, Val};
use crate::procfs::ProcSample;
use crate::report::{note_error, ratio, LatencyFigure, MarshalSample, Stages, Window};
use crate::stats;
use crate::stream::{build_fields, check_fields};
use crate::trace::Recorder;

/// Events per second: about half the saturated rate, which measured
/// ~10,400 events/s on one CPU of a 2-vCPU x86-64 VM (see METRICS.md).
pub const FANOUT_RATE: f64 = 5000.0;

/// How long the reader may still wait after the last publish before
/// the publisher shuts the host down.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Events published and read back during set-up.
const WARMUP_EVENTS: u64 = 64;

/// Publish-start ring for the per-view delivery times; far deeper than
/// a seat's bounded queue.
const RING: usize = 1 << 13;

/// `FlowField2D` with its `GridMetadata` header inlined.  Channels carry
/// one self-contained type, so the composed hydrology format is
/// flattened; the metadata fields keep their names.
pub fn channel_type() -> Result<(ComplexType, Vec<String>), String> {
    let doc = parse_str(&hydrology_schema_xml()).map_err(|e| e.to_string())?;
    let find = |name: &str| {
        doc.types
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("hydrology schema lacks {name}"))
    };
    let grid = find("GridMetadata")?;
    let flow = find("FlowField2D")?;
    let meta: Vec<String> = grid.elements.iter().map(|e| e.name.clone()).collect();
    let mut elements = grid.elements.clone();
    elements.extend(
        flow.elements.iter().filter(|e| e.type_ref != TypeRef::Named(grid.name.clone())).cloned(),
    );
    Ok((ComplexType::new("FlowField2D", elements), meta))
}

pub struct Fanout {
    // Field order is drop order: subscribers leave before the host stops.
    /// The identity and projected subscribers; `None` once a connection
    /// broke or the host was shut down.
    subs: Option<(ChannelSubscriber, ChannelSubscriber)>,
    chan: Channel,
    host: Option<ChannelHost>,
    events: Vec<RawRecord>,
    expect: Vec<GridEvent>,
    /// Native payload bytes of each event's identity view.
    payload: Vec<u64>,
    /// Native payload bytes of the projected view.
    projected_payload: u64,
    next: u64,
}

fn set_seq(rec: &mut RawRecord, seq: u64) -> Result<(), String> {
    rec.set_u64("seq", seq).map_err(|e| e.to_string())
}

fn check_identity(r: &RawRecord, e: &GridEvent, seq: u64) -> Result<(), String> {
    check_fields(r, &e.meta)?;
    check_fields(
        r,
        &[
            ("seq".to_string(), Val::U64(seq)),
            ("depth".to_string(), Val::F64s(e.depth.clone())),
            ("velocity".to_string(), Val::F64s(e.velocity.clone())),
        ],
    )
}

fn check_projected(r: &RawRecord, e: &GridEvent, seq: u64) -> Result<(), String> {
    check_fields(r, &e.meta)?;
    check_fields(r, &[("seq".to_string(), Val::U64(seq))])?;
    if r.get_f64_array("depth").is_ok() || r.get_f64_array("velocity").is_ok() {
        return Err("projected view carries the grid".to_string());
    }
    Ok(())
}

impl Fanout {
    /// Start the host, open the channel, subscribe both views, build the
    /// seeded events and push a few through.
    pub fn setup(seed: u64) -> Result<Fanout, String> {
        let (ct, meta) = channel_type()?;
        let host = ChannelHost::start(ChannelConfig::default()).map_err(|e| e.to_string())?;
        let chan = host.create_channel(&ct).map_err(|e| e.to_string())?;
        let mut identity = ChannelSubscriber::connect(host.addr(), chan.format_id(), None)
            .map_err(|e| format!("identity subscribe: {e}"))?;
        let mut projected = ChannelSubscriber::connect(
            host.addr(),
            chan.format_id(),
            Some(&Projection::keeping(meta)),
        )
        .map_err(|e| format!("projected subscribe: {e}"))?;

        let expect = gen::fanout_events(seed);
        let mut enc = Encoder::new();
        let mut events = Vec::with_capacity(expect.len());
        let mut payload = Vec::with_capacity(expect.len());
        for e in &expect {
            let mut rec = chan.new_record();
            build_fields(&mut rec, &e.meta)?;
            rec.set_f64_array("depth", &e.depth).map_err(|e| e.to_string())?;
            rec.set_f64_array("velocity", &e.velocity).map_err(|e| e.to_string())?;
            set_seq(&mut rec, 0)?;
            let wire = enc.encode(&rec).map_err(|e| e.to_string())?;
            payload.push(parse_header(wire).map_err(|e| e.to_string())?.data_size as u64);
            events.push(rec);
        }
        let mut f = Fanout {
            subs: None,
            chan,
            host: Some(host),
            events,
            expect,
            payload,
            projected_payload: 0,
            next: 0,
        };
        for _ in 0..WARMUP_EVENTS {
            let seq = f.next;
            f.next += 1;
            let idx = (seq % f.events.len() as u64) as usize;
            set_seq(&mut f.events[idx], seq)?;
            f.chan.publish(&f.events[idx]).map_err(|e| format!("publish #{seq}: {e}"))?;
            let got = identity.recv().map_err(|e| format!("identity #{seq}: {e}"))?;
            let got = got.ok_or_else(|| format!("identity #{seq}: channel closed"))?;
            check_identity(&got, &f.expect[idx], seq)
                .map_err(|e| format!("identity #{seq}: {e}"))?;
            let got = projected.recv().map_err(|e| format!("projected #{seq}: {e}"))?;
            let got = got.ok_or_else(|| format!("projected #{seq}: channel closed"))?;
            check_projected(&got, &f.expect[idx], seq)
                .map_err(|e| format!("projected #{seq}: {e}"))?;
            let wire = enc.encode(&got).map_err(|e| e.to_string())?;
            f.projected_payload = parse_header(wire).map_err(|e| e.to_string())?.data_size as u64;
        }
        f.subs = Some((identity, projected));
        Ok(f)
    }

    /// Publish `seconds × FANOUT_RATE` events on schedule and read every
    /// one back from both views.
    pub fn window(&mut self, seconds: f64, trace: bool) -> Window {
        let n = ((seconds * FANOUT_RATE) as u64).max(1);
        let base = self.next;
        self.next += n;
        let period = 1.0 / FANOUT_RATE;
        let publish_ns: Vec<AtomicU64> = (0..RING).map(|_| AtomicU64::new(0)).collect();
        let reader_done = AtomicBool::new(false);
        let Fanout { subs, chan, host, events, expect, payload, projected_payload, .. } = self;

        let stats_before = chan.stats();
        let marshal_before = MarshalSample::read();
        let stages_before = Stages::read();
        let proc_before = ProcSample::read();
        // A small lead so the first event is not already late.
        let t0 = Instant::now() + Duration::from_millis(2);
        let epoch = t0;
        let due = |k: u64| t0 + Duration::from_secs_f64(k as f64 * period);

        let mut rec = Recorder::for_window(trace);
        let mut errors = Vec::new();
        let mut latencies_ms = Vec::with_capacity(2 * n as usize);
        let mut deliver_identity = Vec::new();
        let mut deliver_projected = Vec::new();
        let (mut ops, mut failed, mut payload_bytes) = (0u64, 0u64, 0u64);
        let mut last = t0;

        let publisher = thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                let mut rec = Recorder::for_window(trace);
                let mut late_ms = Vec::with_capacity(n as usize);
                let mut queue_depth_max = 0i64;
                let mut err = None;
                for k in 0..n {
                    if reader_done.load(Ordering::Acquire) {
                        break;
                    }
                    let when = due(k);
                    let now = Instant::now();
                    if when > now {
                        thread::sleep(when - now);
                    }
                    let seq = base + k;
                    let pool = events.len() as u64;
                    let event = &mut events[(seq % pool) as usize];
                    if let Err(e) = set_seq(event, seq) {
                        err = Some(e);
                        break;
                    }
                    let started = Instant::now();
                    late_ms.push(started.saturating_duration_since(when).as_secs_f64() * 1e3);
                    publish_ns[k as usize % RING]
                        .store((started - epoch).as_nanos() as u64, Ordering::Release);
                    let root = rec.begin_op(seq);
                    let span = rec.open("echo.publish");
                    let r = chan.publish(event);
                    rec.close(span);
                    rec.end_op(root);
                    if let Err(e) = r {
                        err = Some(format!("publish #{seq}: {e}"));
                        break;
                    }
                    if trace {
                        queue_depth_max = queue_depth_max.max(chan.stats().queue_depth);
                    }
                }
                let deadline =
                    Instant::now() + if err.is_none() { DRAIN_TIMEOUT } else { Duration::ZERO };
                while !reader_done.load(Ordering::Acquire) && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                }
                if !reader_done.load(Ordering::Acquire) {
                    // Closes every seat once its queue drains.
                    drop(host.take());
                }
                (rec, late_ms, queue_depth_max, err)
            });

            for k in 0..n {
                let Some((identity, projected)) = subs.as_mut() else {
                    failed += n - k;
                    break;
                };
                let seq = base + k;
                let idx = (seq % expect.len() as u64) as usize;
                let e = &expect[idx];
                let root = rec.begin_op(seq);
                let span = rec.open("echo.recv.identity");
                let got_identity = identity.recv();
                rec.close(span);
                let t_identity = Instant::now();
                let span = rec.open("echo.recv.projected");
                let got_projected = projected.recv();
                rec.close(span);
                let t_projected = Instant::now();
                let checked = match (got_identity, got_projected) {
                    (Ok(Some(a)), Ok(Some(b))) => check_identity(&a, e, seq)
                        .map_err(|m| format!("identity #{seq}: {m}"))
                        .and_then(|()| {
                            check_projected(&b, e, seq)
                                .map_err(|m| format!("projected #{seq}: {m}"))
                        }),
                    (a, b) => {
                        // Closing both connections fails the host's
                        // writers, so a blocked publish returns.
                        *subs = None;
                        Err(format!(
                            "event #{seq}: identity {:?}, projected {:?}",
                            a.map(|_| ()),
                            b.map(|_| ())
                        ))
                    }
                };
                rec.end_op(root);
                last = t_projected;
                let when = due(k);
                latencies_ms.push(t_identity.saturating_duration_since(when).as_secs_f64() * 1e3);
                latencies_ms.push(t_projected.saturating_duration_since(when).as_secs_f64() * 1e3);
                if trace {
                    let started = epoch
                        + Duration::from_nanos(
                            publish_ns[k as usize % RING].load(Ordering::Acquire),
                        );
                    deliver_identity
                        .push(t_identity.saturating_duration_since(started).as_secs_f64() * 1e6);
                    deliver_projected
                        .push(t_projected.saturating_duration_since(started).as_secs_f64() * 1e6);
                }
                match checked {
                    Ok(()) => {
                        ops += 1;
                        payload_bytes += payload[idx] + *projected_payload;
                    }
                    Err(m) => {
                        failed += 1;
                        note_error(&mut errors, || m);
                    }
                }
            }
            reader_done.store(true, Ordering::Release);
            publisher.join()
        });
        if host.is_none() {
            *subs = None;
        }
        // From the first due time to the last receipt: the rate the views
        // kept up with, just above the schedule's when they kept pace.
        let elapsed_s = last.saturating_duration_since(t0).as_secs_f64().max(period);
        let proc_after = ProcSample::read();
        let stages_after = Stages::read();
        let stats_after = chan.stats();
        let mut layer = MarshalSample::read().per_op(&marshal_before, ops);

        let mut recorders = vec![rec];
        match publisher {
            Ok((prec, late_ms, queue_depth_max, err)) => {
                recorders.push(prec);
                let late = stats::sorted(late_ms);
                layer.push(("gen_late_ms_p99", stats::tail(&late, 0.99).map_or(0.0, |q| q.value)));
                layer.push(("echo.queue_depth_max", queue_depth_max as f64));
                if let Some(e) = err {
                    failed += 1;
                    note_error(&mut errors, || e);
                }
            }
            Err(_) => {
                failed += 1;
                note_error(&mut errors, || "publisher thread panicked".to_string());
            }
        }
        let events_delta = stats_after.events - stats_before.events;
        let encodes = stats_after.encodes - stats_before.encodes;
        layer.push(("echo.events", events_delta as f64));
        layer.push(("echo.encodes_per_event", ratio(encodes, events_delta)));
        for (p50, p99, samples) in [
            ("echo.deliver.identity.p50_us", "echo.deliver.identity.p99_us", deliver_identity),
            ("echo.deliver.projected.p50_us", "echo.deliver.projected.p99_us", deliver_projected),
        ] {
            let s = stats::sorted(samples);
            layer.push((p50, stats::median(&s).unwrap_or(0.0)));
            layer.push((p99, stats::tail(&s, 0.99).map_or(0.0, |q| q.value)));
        }

        Window {
            ops,
            attempted: n,
            failed: failed.min(n),
            elapsed_s,
            latencies_ms,
            payload_bytes,
            latency_figure: LatencyFigure::Median,
            proc_before,
            proc_after,
            stages_before,
            stages_after,
            recorders,
            layer,
            errors,
        }
    }
}
