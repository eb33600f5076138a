//! The process-wide format-client connection pool, on both server
//! engines: a dropped client hands its keep-alive connection to the next
//! client of the same server, a pooled connection the server has since
//! closed is discarded at checkout, the pool stays within its total cap,
//! and a checked-out connection carries its new owner's deadlines.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use openmeta_net::{Backend, Fault, FaultProxy, ServerConfig, TransportConfig};
use openmeta_obs::MetricsRegistry;
use openmeta_pbio::server::{FormatServer, FormatServerClient, POOL_IDLE_TOTAL};
use openmeta_pbio::{FormatDescriptor, FormatId, FormatSpec, IOField, MachineModel};

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::EventLoop];

/// The tests share one process-wide pool and its counters; run them one
/// at a time so each sees only its own connections.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn descriptor(name: &str) -> FormatDescriptor {
    FormatDescriptor::resolve(
        &FormatSpec::new(name, vec![IOField::auto("x", "integer", 4)]),
        MachineModel::native(),
        &|_| None,
    )
    .unwrap()
}

fn config(backend: Backend) -> ServerConfig {
    ServerConfig { backend, ..ServerConfig::default() }
}

fn client_counter(name: &str) -> u64 {
    let series = format!("openmeta_format_client_{name}_total");
    MetricsRegistry::global().snapshot().counter_value(&series).unwrap_or(0)
}

#[test]
fn sequential_clients_share_one_connection_on_both_backends() {
    let _serial = serial();
    for backend in BACKENDS {
        let server = FormatServer::start_with(config(backend)).unwrap();
        let desc = descriptor("Pooled");
        for _ in 0..50 {
            let client = FormatServerClient::connect(server.addr());
            assert_eq!(client.register(&desc).unwrap(), desc.id(), "{backend:?}");
        }
        let c = server.transport_counters();
        assert_eq!(c.accepted, 1, "{backend:?}: 50 clients, one connection: {c:?}");
        assert_eq!(c.frames_in, 50, "{backend:?}: {c:?}");
    }
}

#[test]
fn connection_to_a_dropped_server_is_discarded_on_checkout_on_both_backends() {
    let _serial = serial();
    for backend in BACKENDS {
        let desc = descriptor("Restarted");
        let server = FormatServer::start_with(config(backend)).unwrap();
        let addr = server.addr();
        FormatServerClient::connect(addr).register(&desc).unwrap();
        // The drain closes the pooled connection; a new server takes
        // over the address the pool keys it under.
        drop(server);
        let server = FormatServer::start_on(addr.port(), config(backend)).unwrap();
        let (dead_before, connects_before) =
            (client_counter("dead_on_checkout"), client_counter("connects"));
        let client = FormatServerClient::connect(addr);
        assert_eq!(client.register(&desc).unwrap(), desc.id(), "{backend:?}");
        assert_eq!(client_counter("dead_on_checkout") - dead_before, 1, "{backend:?}");
        assert_eq!(client_counter("connects") - connects_before, 1, "{backend:?}");
        assert_eq!(server.transport_counters().accepted, 1, "{backend:?}");
    }
}

#[test]
fn short_lived_servers_leave_at_most_the_total_cap_idle() {
    let _serial = serial();
    for i in 0..200 {
        let server = FormatServer::start_with(config(BACKENDS[i % 2])).unwrap();
        assert_eq!(FormatServerClient::connect(server.addr()).fetch(FormatId(1)).unwrap(), None);
    }
    let idle = FormatServerClient::pooled_idle_count();
    assert!(idle <= POOL_IDLE_TOTAL, "{idle} idle sockets > cap {POOL_IDLE_TOTAL}");
}

#[test]
fn pooled_connection_takes_its_new_owners_deadline_on_both_backends() {
    let _serial = serial();
    // A fetch request frame is 13 bytes: the proxy relays exactly one
    // per connection, then stalls that connection.
    let fault = Fault::Stall { after: 13 };
    for backend in BACKENDS {
        let server = FormatServer::start_with(config(backend)).unwrap();
        let proxy = FaultProxy::start(server.addr(), fault).unwrap();
        // A default client (30 s read deadline) pools its connection.
        assert_eq!(FormatServerClient::connect(proxy.addr()).fetch(FormatId(1)).unwrap(), None);
        let quick = TransportConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..TransportConfig::default()
        };
        let client = FormatServerClient::connect_with(proxy.addr(), quick);
        let start = Instant::now();
        // The pooled connection stalls: its 50 ms deadline fires and the
        // one stale-connection retry succeeds on a fresh connection.
        assert_eq!(client.fetch(FormatId(1)).unwrap(), None, "{backend:?}");
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(45), "{backend:?}: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(5), "{backend:?}: inherited deadline, {elapsed:?}");
    }
}
