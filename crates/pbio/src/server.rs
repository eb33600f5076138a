//! A TCP format server: the out-of-band metadata plane.
//!
//! PBIO messages carry only a format id.  When a receiver encounters an id
//! it has never seen, it asks a format server for the descriptor — this is
//! the "retrieve the metadata on demand" arrow in the paper's Figure 2.
//! The protocol is a trivial length-framed request/response:
//!
//! ```text
//! frame    := len:u32be payload
//! request  := 0x01 descriptor-bytes          (register, reply: id)
//!           | 0x02 id:u64be                  (fetch, reply: descriptor)
//! response := 0x00 body | 0x01 (not found) | 0x02 message (error)
//! ```
//!
//! The server is a content-addressed byte store: each id maps to the
//! canonical descriptor bytes registered under it.  Its per-content work
//! happens once, when content is first published: a register whose body
//! the store already holds byte for byte is answered with the id after a
//! hash and a compare, with no decode; only content new to the server is
//! fully decoded (which validates it) before it is stored.  That compare
//! is sound because decoding depends on nothing but the bytes, and
//! decoding is canonical (see [`crate::codec`]), so the id the server
//! hashes is the id the registering peer computed.  A fetch replies with
//! the stored bytes as they are, with no re-encode.
//!
//! The protocol is one sans-io handler, `FormatConn`; the server
//! lifecycle is `openmeta_net`'s [`Server`]: a bounded worker pool (or
//! the readiness event loop) instead of thread-per-connection spawns,
//! read/write deadlines on every connection, and a drop that drains
//! in-flight requests.  The client holds one persistent connection with
//! retry-with-backoff connects and a single transparent reconnect when
//! the held connection has gone stale.  A dropped client leaves its
//! connection in a process-wide idle pool, so the next client of the
//! same server (a fresh toolkit joining) skips the TCP handshake.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};

use crate::sync::{self, Mutex};
use openmeta_net::{
    connect_retrying, harden_stream, probe_idle, read_frame_blocking, Dispatch, EventHandler,
    IdleSet, LengthFramer, Server, ServerConfig, ServerStats, TransportConfig, TransportCounters,
};
use openmeta_obs::{Counter, MetricsRegistry};

use crate::codec::{decode_descriptor, encode_descriptor};
use crate::error::PbioError;
use crate::format::{fnv1a_64, FormatDescriptor, FormatId};
use crate::registry::FormatRegistry;

const OP_REGISTER: u8 = 1;
const OP_FETCH: u8 = 2;
const ST_OK: u8 = 0;
const ST_NOT_FOUND: u8 = 1;
const ST_ERROR: u8 = 2;

/// Maximum frame size accepted by either side (defensive bound).
const MAX_FRAME: usize = 16 << 20;

/// Write one frame as a single buffered write (length prefix and payload
/// in one segment, so Nagle never parks the payload behind a delayed ACK).
pub(crate) fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), PbioError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| PbioError::Server("frame too large".to_string()))?;
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    stream.write_all(&out)?;
    Ok(())
}

/// Read one frame (client side).  Built on the sans-io [`LengthFramer`],
/// which bounds the length prefix and grows the payload buffer only as
/// bytes actually arrive.  A clean EOF before any byte means the peer
/// hung up — for a client mid-request that is an error.
pub(crate) fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, PbioError> {
    let mut framer = LengthFramer::new(MAX_FRAME);
    match read_frame_blocking(stream, &mut framer) {
        Ok(Some((_, payload))) => Ok(payload),
        Ok(None) => Err(PbioError::Io("connection closed by format server".to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(PbioError::Server(e.to_string()))
        }
        Err(e) => Err(PbioError::from(e)),
    }
}

/// Build the wire payload of a fetch request (without the length
/// prefix).  Exposed for load generators that drive the server with raw
/// frames over nonblocking sockets.
pub fn fetch_request_payload(id: FormatId) -> Vec<u8> {
    let mut req = vec![OP_FETCH];
    req.extend_from_slice(&id.0.to_be_bytes());
    req
}

/// A running format server.  Dropping it shuts the server down
/// gracefully: in-flight requests finish, idle keep-alive connections
/// are closed, and the engine is drained.
pub struct FormatServer {
    server: Server,
    stats: ServerStats,
}

impl FormatServer {
    /// Start a server on an ephemeral localhost port with default bounds.
    pub fn start() -> Result<FormatServer, PbioError> {
        FormatServer::start_with(ServerConfig::default())
    }

    /// Start a server with explicit engine/worker/queue/deadline bounds.
    pub fn start_with(cfg: ServerConfig) -> Result<FormatServer, PbioError> {
        FormatServer::start_on(0, cfg)
    }

    /// Start a server on a specific localhost port (0 = ephemeral), e.g.
    /// to restart one at the address its clients already know.
    pub fn start_on(port: u16, cfg: ServerConfig) -> Result<FormatServer, PbioError> {
        Ok(FormatServer::serve(port, cfg)?.0)
    }

    /// Start serving, also handing back the server's store.
    fn serve(port: u16, cfg: ServerConfig) -> Result<(FormatServer, Arc<FormatStore>), PbioError> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let store = Arc::new(FormatStore::new());
        let stats = ServerStats::new();
        let shared = store.clone();
        let server = Server::start("format-server", listener, cfg, stats.clone(), move || {
            Box::new(FormatConn { store: shared.clone(), framer: LengthFramer::new(MAX_FRAME) })
        })?;
        Ok((FormatServer { server, stats }, store))
    }

    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Transport counters: accepted/active/rejected/timed-out connections
    /// and frames in/out.
    pub fn transport_counters(&self) -> TransportCounters {
        self.stats.snapshot()
    }
}

/// The server's state: canonical descriptor bytes by content id, plus
/// the `openmeta_format_server_registers_total` counters by outcome.
struct FormatStore {
    by_id: Mutex<HashMap<FormatId, Arc<[u8]>>>,
    /// Registers whose body the store already held (no decode ran).
    known: Arc<Counter>,
    /// Registers of content new to the store (decoded, then stored).
    new: Arc<Counter>,
}

impl FormatStore {
    fn new() -> FormatStore {
        let m = MetricsRegistry::global();
        let series = "openmeta_format_server_registers_total";
        FormatStore {
            by_id: Mutex::new(HashMap::new()),
            known: m.counter_with(series, &[("outcome", "known")]),
            new: m.counter_with(series, &[("outcome", "new")]),
        }
    }

    /// Register canonical descriptor bytes; returns their id.  Content
    /// already stored byte for byte costs a hash and a compare.  Anything
    /// else is decoded first, so only valid descriptors are ever stored;
    /// on an id collision between different bodies the newer one wins.
    fn register(&self, body: &[u8]) -> Result<FormatId, PbioError> {
        let id = FormatId(fnv1a_64(body));
        if sync::lock(&self.by_id).get(&id).is_some_and(|stored| **stored == *body) {
            self.known.inc();
            return Ok(id);
        }
        let desc = decode_descriptor(body)?;
        debug_assert_eq!(desc.id(), id, "canonical decode hashes to the body's id");
        sync::lock(&self.by_id).insert(id, Arc::from(body));
        self.new.inc();
        Ok(id)
    }

    fn fetch(&self, id: FormatId) -> Option<Arc<[u8]>> {
        sync::lock(&self.by_id).get(&id).cloned()
    }
}

/// One connection of the format protocol: the [`LengthFramer`] plus
/// [`write_reply`], run by either engine.  Every read-deadline expiry
/// counts as a timeout (the trait's default): a format client that
/// connected always owes a frame.
struct FormatConn {
    store: Arc<FormatStore>,
    framer: LengthFramer,
}

impl EventHandler for FormatConn {
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> std::io::Result<Dispatch> {
        self.framer.push(bytes);
        let mut dispatch = Dispatch::default();
        while let Some((_, payload)) = self.framer.next_frame()? {
            let _span = openmeta_obs::span!("server.request");
            write_reply(&payload, &self.store, out)?;
            dispatch.requests += 1;
        }
        Ok(dispatch)
    }
}

/// Append the framed reply to `req` to `out`: the length prefix is
/// patched in once the payload is written, so the reply is built in
/// place.
fn write_reply(req: &[u8], store: &FormatStore, out: &mut Vec<u8>) -> std::io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut error = |msg: &str| {
        out.push(ST_ERROR);
        out.extend_from_slice(msg.as_bytes());
    };
    match req.split_first() {
        Some((&OP_REGISTER, body)) => match store.register(body) {
            Ok(id) => {
                out.push(ST_OK);
                out.extend_from_slice(&id.0.to_be_bytes());
            }
            Err(e) => error(&e.to_string()),
        },
        Some((&OP_FETCH, body)) => match <[u8; 8]>::try_from(body) {
            Ok(id_bytes) => match store.fetch(FormatId(u64::from_be_bytes(id_bytes))) {
                Some(bytes) => {
                    out.push(ST_OK);
                    out.extend_from_slice(&bytes);
                }
                None => out.push(ST_NOT_FOUND),
            },
            Err(_) => error("fetch body must be 8 bytes"),
        },
        Some((op, _)) => error(&format!("unknown opcode {op}")),
        None => error("empty request"),
    }
    let len = u32::try_from(out.len() - start - 4).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "reply frame too large")
    })?;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Idle connections the process-wide client pool keeps per server.
const POOL_IDLE_PER_SERVER: usize = 4;

/// Idle connections the process-wide client pool keeps across all
/// servers; beyond it the oldest is closed, so connections to servers
/// that went away cannot pile up.
pub const POOL_IDLE_TOTAL: usize = 64;

/// Keep-alive connections dropped clients left behind, keyed by server
/// address, with the `openmeta_format_client_*` counters.
struct ClientPool {
    idle: IdleSet<SocketAddr, TcpStream>,
    connects: Arc<Counter>,
    reuses: Arc<Counter>,
    dead_on_checkout: Arc<Counter>,
}

fn client_pool() -> &'static ClientPool {
    static POOL: OnceLock<ClientPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let m = MetricsRegistry::global();
        ClientPool {
            idle: IdleSet::new(POOL_IDLE_PER_SERVER, POOL_IDLE_TOTAL),
            connects: m.counter("openmeta_format_client_connects_total"),
            reuses: m.counter("openmeta_format_client_reuses_total"),
            dead_on_checkout: m.counter("openmeta_format_client_dead_on_checkout_total"),
        }
    })
}

impl ClientPool {
    /// An idle connection to `addr` that passed the health probe; dead
    /// ones (the server idle-closed or drained them) are discarded.
    fn check_out(&self, addr: SocketAddr) -> Option<TcpStream> {
        while let Some(stream) = self.idle.check_out(&addr) {
            if let Some(healthy) = probe_idle(stream) {
                self.reuses.inc();
                return Some(healthy);
            }
            self.dead_on_checkout.inc();
        }
        None
    }
}

/// Client handle for a [`FormatServer`].
///
/// Holds one persistent connection and reuses it across requests (the
/// server keeps connections alive for exactly this reason).  The first
/// request takes an idle connection to the same server from the
/// process-wide pool when one passes the health probe, and a dropped
/// client checks its connection back in, so short-lived clients share
/// connections instead of each paying a handshake.  When the held or
/// pooled connection has gone stale — the server idle-closed it or
/// restarted — the request transparently reconnects once and retries;
/// both operations are idempotent (register is content-addressed and
/// fetch is read-only), so the retry is safe.  Fresh connects run under
/// the configured retry-with-backoff schedule, and every socket, pooled
/// or fresh, carries this client's connect/read/write deadlines.
pub struct FormatServerClient {
    addr: SocketAddr,
    config: TransportConfig,
    conn: Mutex<Option<TcpStream>>,
}

impl FormatServerClient {
    /// A client for the server at `addr` with default deadlines.
    pub fn connect(addr: SocketAddr) -> FormatServerClient {
        FormatServerClient::connect_with(addr, TransportConfig::default())
    }

    /// A client with explicit deadlines and retry schedule.
    pub fn connect_with(addr: SocketAddr, config: TransportConfig) -> FormatServerClient {
        FormatServerClient { addr, config, conn: Mutex::new(None) }
    }

    /// Idle connections the process-wide pool holds, across all servers.
    pub fn pooled_idle_count() -> usize {
        client_pool().idle.count()
    }

    /// A healthy pooled connection to this client's server, carrying
    /// this client's deadlines rather than its previous owner's.
    fn pooled_stream(&self) -> Option<TcpStream> {
        let stream = client_pool().check_out(self.addr)?;
        harden_stream(&stream, &self.config).ok()?;
        Some(stream)
    }

    fn fresh_stream(&self) -> Result<TcpStream, PbioError> {
        let stream = connect_retrying(self.addr, &self.config)
            .map_err(|e| PbioError::Io(format!("connecting to format server: {e}")))?;
        client_pool().connects.inc();
        Ok(stream)
    }

    fn exchange(stream: &mut TcpStream, request: &[u8]) -> Result<Vec<u8>, PbioError> {
        write_frame(stream, request)?;
        read_frame(stream)
    }

    fn round_trip(&self, request: &[u8]) -> Result<Vec<u8>, PbioError> {
        let mut guard = sync::lock(&self.conn);
        if let Some(mut stream) = guard.take().or_else(|| self.pooled_stream()) {
            // On failure the connection was stale (idle-closed, server
            // restarted, or a deadline fired): reconnect once below and
            // retry the exchange.
            if let Ok(reply) = Self::exchange(&mut stream, request) {
                *guard = Some(stream);
                return Ok(reply);
            }
        }
        let mut stream = self.fresh_stream()?;
        let reply = Self::exchange(&mut stream, request)?;
        *guard = Some(stream);
        Ok(reply)
    }

    /// Publish a descriptor; returns its content-addressed id.
    pub fn register(&self, desc: &FormatDescriptor) -> Result<FormatId, PbioError> {
        let mut req = vec![OP_REGISTER];
        req.extend_from_slice(&encode_descriptor(desc));
        let reply = self.round_trip(&req)?;
        match reply.split_first() {
            Some((&ST_OK, body)) => {
                let bytes: [u8; 8] = body
                    .try_into()
                    .map_err(|_| PbioError::Server("short register reply".to_string()))?;
                Ok(FormatId(u64::from_be_bytes(bytes)))
            }
            Some((&ST_ERROR, msg)) => {
                Err(PbioError::Server(String::from_utf8_lossy(msg).into_owned()))
            }
            _ => Err(PbioError::Server("malformed register reply".to_string())),
        }
    }

    /// Fetch a descriptor by id; `Ok(None)` when the server has no such id.
    pub fn fetch(&self, id: FormatId) -> Result<Option<FormatDescriptor>, PbioError> {
        let mut req = vec![OP_FETCH];
        req.extend_from_slice(&id.0.to_be_bytes());
        let reply = self.round_trip(&req)?;
        match reply.split_first() {
            Some((&ST_OK, body)) => Ok(Some(decode_descriptor(body)?)),
            Some((&ST_NOT_FOUND, _)) => Ok(None),
            Some((&ST_ERROR, msg)) => {
                Err(PbioError::Server(String::from_utf8_lossy(msg).into_owned()))
            }
            _ => Err(PbioError::Server("malformed fetch reply".to_string())),
        }
    }

    /// Resolve an id into `registry`, fetching from the server on a miss.
    pub fn resolve_into(
        &self,
        id: FormatId,
        registry: &FormatRegistry,
    ) -> Result<Arc<FormatDescriptor>, PbioError> {
        if let Some(d) = registry.lookup_id(id) {
            return Ok(d);
        }
        let fetched = self.fetch(id)?.ok_or(PbioError::UnknownFormatId(id.0))?;
        Ok(registry.register_descriptor(fetched))
    }
}

impl Drop for FormatServerClient {
    /// Leave the held connection for the next client of the same server.
    /// It is always clean: only a connection whose last exchange
    /// completed is ever held.
    fn drop(&mut self) {
        if let Some(stream) = sync::get_mut(&mut self.conn).take() {
            client_pool().idle.check_in(self.addr, stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use crate::machine::MachineModel;
    use openmeta_net::RetryPolicy;
    use std::time::Duration;

    fn descriptor(name: &str) -> FormatDescriptor {
        FormatDescriptor::resolve(
            &FormatSpec::new(
                name,
                vec![IOField::auto("x", "integer", 4), IOField::auto("s", "string", 0)],
            ),
            MachineModel::SPARC32,
            &|_| None,
        )
        .unwrap()
    }

    /// A client config whose failures resolve quickly in tests.
    fn fast_config() -> TransportConfig {
        TransportConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
            },
            ..TransportConfig::default()
        }
    }

    #[test]
    fn register_then_fetch() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        let desc = descriptor("Remote");
        let id = client.register(&desc).unwrap();
        assert_eq!(id, desc.id());
        let fetched = client.fetch(id).unwrap().unwrap();
        assert_eq!(fetched, desc);
        // The persistent client made both requests over one connection.
        let counters = server.transport_counters();
        assert_eq!(counters.accepted, 1);
        assert_eq!(counters.frames_in, 2);
        // frame_out lands after the reply is flushed; wait out the race
        // between this assert and the worker's accounting.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while server.transport_counters().frames_out < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.transport_counters().frames_out, 2);
    }

    #[test]
    fn fetch_unknown_is_none() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        assert_eq!(client.fetch(FormatId(12345)).unwrap(), None);
    }

    #[test]
    fn resolve_into_populates_registry() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        let desc = descriptor("Lazy");
        let id = client.register(&desc).unwrap();
        let local = FormatRegistry::new(MachineModel::native());
        assert!(local.lookup_id(id).is_none());
        let resolved = client.resolve_into(id, &local).unwrap();
        assert_eq!(*resolved, desc);
        assert!(local.lookup_id(id).is_some());
        // Second resolve is a registry hit (no server involved).
        let again = client.resolve_into(id, &local).unwrap();
        assert!(Arc::ptr_eq(&resolved, &again));
    }

    #[test]
    fn concurrent_clients() {
        let server = FormatServer::start().unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..6 {
            handles.push(std::thread::spawn(move || {
                let client = FormatServerClient::connect(addr);
                let desc = descriptor(&format!("Fmt{t}"));
                let id = client.register(&desc).unwrap();
                assert_eq!(client.fetch(id).unwrap().unwrap(), desc);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn server_shuts_down_on_drop() {
        let addr = {
            let server = FormatServer::start().unwrap();
            server.addr()
        };
        // After drop, new connections are refused (or accepted-and-closed
        // by the OS backlog, in which case the request fails).
        let client = FormatServerClient::connect_with(addr, fast_config());
        assert!(client.fetch(FormatId(1)).is_err());
    }

    #[test]
    fn client_survives_idle_close_with_one_reconnect() {
        // The server idle-closes the held connection almost immediately;
        // the client's next request must transparently reconnect.
        let server = FormatServer::start_with(ServerConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        })
        .unwrap();
        let client = FormatServerClient::connect_with(server.addr(), fast_config());
        let desc = descriptor("Sticky");
        let id = client.register(&desc).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(client.fetch(id).unwrap().unwrap(), desc);
        assert_eq!(server.transport_counters().accepted, 2, "one reconnect after idle close");
    }

    #[test]
    fn two_clients_registering_one_descriptor_decode_it_once() {
        let (server, store) = FormatServer::serve(0, ServerConfig::default()).unwrap();
        let desc = descriptor("Shared");
        let a = FormatServerClient::connect(server.addr()).register(&desc).unwrap();
        let b = FormatServerClient::connect(server.addr()).register(&desc).unwrap();
        assert_eq!(a, desc.id());
        assert_eq!(b, a);
        assert_eq!(store.new.get(), 1, "the first register decodes and stores");
        assert_eq!(store.known.get(), 1, "the second is a hash and a byte compare");
        // A fetch replies with the stored bytes unchanged.
        let client = FormatServerClient::connect(server.addr());
        assert_eq!(client.fetch(a).unwrap().unwrap(), desc);
    }

    #[test]
    fn ten_thousand_level_register_gets_an_error_reply_and_the_server_keeps_serving() {
        let (server, store) = FormatServer::serve(0, ServerConfig::default()).unwrap();
        let mut req = vec![OP_REGISTER];
        req.extend_from_slice(&crate::codec::nested_chain_bytes(10_000));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &req).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        assert_eq!(reply.first(), Some(&ST_ERROR));
        let msg = String::from_utf8_lossy(&reply[1..]);
        assert!(msg.contains("nests deeper"), "{msg}");
        // The same connection and a fresh client are both still served.
        write_frame(&mut stream, &fetch_request_payload(FormatId(7))).unwrap();
        assert_eq!(read_frame(&mut stream).unwrap(), vec![ST_NOT_FOUND]);
        let desc = descriptor("After");
        let client = FormatServerClient::connect(server.addr());
        assert_eq!(client.register(&desc).unwrap(), desc.id());
        assert_eq!(store.new.get(), 1);
    }
}
