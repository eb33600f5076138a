//! Shared transport hardening for the metadata and record planes.
//!
//! The paper's Figure 2 architecture splits communication into a metadata
//! plane (format servers, HTTP schema hosts) and a data plane (PBIO
//! record streams).  Both planes must stay correct when a peer misbehaves:
//! a stalled socket must not hang a client forever, a slow reader must
//! not wedge a sender, and connection handling must not spawn unbounded
//! threads.  This crate supplies the pieces the `pbio`, `ohttp` and
//! `xmit` transports share:
//!
//! * [`TransportConfig`] — client-side connect/read/write deadlines and a
//!   [`RetryPolicy`] for connect-with-backoff;
//! * [`ServerConfig`] — engine choice, worker count, accept-queue cap,
//!   max-connections bound and per-connection deadlines for servers;
//! * [`Server`] — the one server lifecycle: accept thread, engine,
//!   graceful drain on drop.  A protocol is a sans-io [`EventHandler`]
//!   (fed bytes, appends replies, reports a [`Dispatch`]); [`Backend`]
//!   picks which of two drivers runs it — a bounded pool of blocking
//!   workers or a readiness poll loop sweeping nonblocking sockets with
//!   deadlines from a [`TimerWheel`];
//! * [`ServerStats`] / [`TransportCounters`] — per-server counters
//!   (accepted, active, rejected, timed out, frames in/out) surfaced
//!   through the bench `--json` reports;
//! * [`IdleSet`] and [`probe_idle`] — the client side's idle keep-alive
//!   connections: per-peer and total caps, and the zero-timeout health
//!   check a pooled socket passes before reuse;
//! * [`read_exact_capped`] and [`LengthFramer`] — frame-payload reads
//!   that grow the buffer as bytes actually arrive, so an untrusted
//!   length prefix cannot force a large up-front allocation;
//! * [`FaultProxy`] — a TCP proxy test fixture injecting stalls,
//!   mid-frame resets, truncation and partial writes.

#![deny(unsafe_code)]

pub mod config;
mod event_loop;
pub mod faults;
pub mod framing;
pub mod idle;
pub mod nio;
pub mod retry;
pub mod sansio;
pub mod server;
pub mod stats;
pub(crate) mod sync;
pub mod timer;
mod workers;

pub use config::{
    connect_retrying, connect_with_deadline, harden_stream, Backend, ServerConfig, TransportConfig,
};
pub use faults::{Fault, FaultProxy};
pub use framing::{is_timeout, read_exact_capped, write_all_vectored, READ_CHUNK};
pub use idle::{probe_idle, IdleSet};
pub use retry::RetryPolicy;
pub use sansio::{read_frame_blocking, LengthFramer};
pub use server::{Dispatch, EventHandler, Server};
pub use stats::{ServerStats, TransportCounters};
pub use timer::TimerWheel;
