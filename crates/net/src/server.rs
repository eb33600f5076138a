//! One server lifecycle for every request/response protocol.
//!
//! A protocol is implemented once, as a sans-io [`EventHandler`]: an
//! incremental parser plus request handler that consumes byte chunks and
//! appends response bytes.  [`Server`] owns everything else — the accept
//! thread, the engine [`ServerConfig::backend`] selects, the wake that
//! unblocks `accept()` and drain-on-drop — so the format server and the
//! HTTP schema host differ only in the handler they pass in.
//!
//! The two engines are two drivers of the same handler:
//!
//! * [`Backend::Threaded`]: a bounded worker pool whose workers each run
//!   one connection through a blocking driver — read a chunk, feed it to
//!   the handler, write the whole reply with one `write_all`;
//! * [`Backend::EventLoop`]: a readiness sweep over nonblocking sockets
//!   (the `event_loop` module), which feeds the same handler and flushes
//!   its output as the socket accepts it.
//!
//! Both feed the same [`ServerStats`] with the same timeout semantics:
//! a write stall always counts `timed_out`, a read expiry counts only if
//! [`EventHandler::deadline_counts_as_timeout`] says so.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::{Backend, ServerConfig};
use crate::event_loop::EventLoop;
use crate::framing::is_timeout;
use crate::stats::ServerStats;
use crate::workers::{spawn_worker, ConnTracker, WorkerPool};

/// What a handler did with a chunk of bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Complete requests/frames consumed (feeds the `frames_in`
    /// counter; responses are counted as their bytes flush).
    pub requests: usize,
    /// Close the connection once queued output has flushed (e.g.
    /// `Connection: close`).
    pub close: bool,
}

/// The sans-io protocol core of one connection, run by either engine.
///
/// The engine feeds raw byte chunks in whatever sizes the kernel
/// delivers; the handler buffers partial input, and appends complete
/// response bytes to `out` for the engine to write.  Returning an error
/// closes the connection (protocol violation, oversized frame, …).
pub trait EventHandler: Send {
    /// Consume `bytes`, appending any response bytes to `out`.
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> io::Result<Dispatch>;

    /// When a *read* deadline expires, should it count as `timed_out`?
    /// Protocols that treat an idle keep-alive connection's expiry as a
    /// routine close (HTTP) return `false` unless mid-request; frame
    /// protocols that count every read expiry (pbio) keep the default.
    fn deadline_counts_as_timeout(&self) -> bool {
        true
    }
}

/// Factory producing one handler per accepted connection.
pub(crate) type HandlerFactory = dyn Fn() -> Box<dyn EventHandler> + Send + Sync;

/// Read size of the blocking driver (requests on both protocols are
/// small; larger ones simply take several reads).
const DRIVER_READ_CHUNK: usize = 8 * 1024;

/// The engine behind a [`Server`], per [`ServerConfig::backend`].
enum Engine {
    Threaded { pool: WorkerPool, tracker: Arc<ConnTracker> },
    Event(EventLoop),
}

impl Engine {
    /// Hand over an accepted connection; `false` means it was rejected
    /// (counted by the engine) and the caller drops it.
    fn submit(&self, stream: TcpStream) -> bool {
        match self {
            Engine::Threaded { pool, .. } => pool.submit(stream),
            Engine::Event(el) => el.register(stream),
        }
    }

    fn shutdown(&self, budget: Duration) {
        match self {
            Engine::Threaded { pool, tracker } => {
                // Workers parked waiting for a peer's next request get
                // EOF and exit; a worker mid-reply keeps its write half
                // and finishes.
                tracker.shutdown_reads();
                pool.shutdown(budget);
            }
            Engine::Event(el) => {
                // The loop stops reading, flushes queued replies and
                // closes connections as their output drains.
                el.shutdown(budget);
            }
        }
    }
}

/// A running request/response server.  Dropping it shuts it down
/// gracefully: the acceptor stops, in-flight requests finish, idle
/// keep-alive connections close, and the engine drains within
/// [`ServerConfig::drain_timeout`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
    drain_timeout: Duration,
}

impl Server {
    /// Serve `listener` on the engine `cfg.backend` selects, running one
    /// handler from `factory` per accepted connection.  `stats` receives
    /// the accept, admission, deadline and frame counters; `name` labels
    /// the server's threads.
    pub fn start(
        name: &str,
        listener: TcpListener,
        cfg: ServerConfig,
        stats: ServerStats,
        factory: impl Fn() -> Box<dyn EventHandler> + Send + Sync + 'static,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(match cfg.backend {
            Backend::Threaded => {
                let tracker = Arc::new(ConnTracker::new());
                let (tracker_w, stop_w, stats_w) = (tracker.clone(), stop.clone(), stats.clone());
                let pool = WorkerPool::new(name, &cfg, stats.clone(), move |stream: TcpStream| {
                    let id = tracker_w.register(&stream);
                    // Checked after registering: a connection picked up
                    // after the drain's `shutdown_reads` sees the stop
                    // flag instead of blocking a full read deadline.
                    if !stop_w.load(Ordering::Acquire) {
                        drive_blocking(stream, &mut *factory(), &cfg, &stop_w, &stats_w);
                    }
                    tracker_w.unregister(id);
                });
                Engine::Threaded { pool, tracker }
            }
            Backend::EventLoop => {
                Engine::Event(EventLoop::start(name, &cfg, stats.clone(), Arc::new(factory)))
            }
        });

        let (stop_a, engine_a) = (stop.clone(), engine.clone());
        let accept_thread = spawn_worker(format!("{name}-accept"), move || {
            for conn in listener.incoming() {
                if stop_a.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                stats.accepted();
                // submit() counts the rejection and the dropped stream
                // closes, so a connection flood costs closed sockets,
                // never unbounded threads.
                let _ = engine_a.submit(stream);
            }
        });
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            engine,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// Address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection — bounded, so a
        // filtered loopback can never wedge the drop.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.engine.shutdown(self.drain_timeout);
    }
}

/// The threaded engine's connection loop: a blocking driver of the
/// handler the event loop sweeps.  Returns (closing the connection) on
/// EOF, a deadline, a handler error, `Dispatch::close`, or a read that
/// lands after the server began stopping.
fn drive_blocking(
    mut stream: TcpStream,
    handler: &mut dyn EventHandler,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    stats: &ServerStats,
) {
    // Replies go out in one write; without TCP_NODELAY a reused
    // connection can stall ~40 ms per exchange (Nagle vs delayed ACK).
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_write_timeout(cfg.write_timeout);
    let _ = stream.set_nodelay(true);
    let mut scratch = [0u8; DRIVER_READ_CHUNK];
    let mut out = Vec::new();
    loop {
        let n = match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) => {
                // Read expiries defer to the protocol's idle semantics.
                if is_timeout(&e) && handler.deadline_counts_as_timeout() {
                    stats.timed_out();
                }
                return;
            }
        };
        // A stopping server must not answer from state that may already
        // be stale; closing mid-request makes pooled clients reconnect.
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(dispatch) = handler.on_bytes(&scratch[..n], &mut out) else { return };
        for _ in 0..dispatch.requests {
            stats.frame_in();
        }
        if !out.is_empty() {
            if let Err(e) = stream.write_all(&out) {
                // A peer that stops draining its replies: write stalls
                // always count.
                if is_timeout(&e) {
                    stats.timed_out();
                }
                return;
            }
            out.clear();
        }
        for _ in 0..dispatch.requests {
            stats.frame_out();
        }
        if dispatch.close {
            return;
        }
    }
}
