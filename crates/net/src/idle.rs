//! Idle keep-alive connections: one retention policy and one health
//! probe for every client-side connection pool in the workspace (the
//! HTTP discovery pool and the format-server client pool).
//!
//! [`IdleSet`] holds idle items under a per-key cap and a total cap, so
//! connections to peers that went away cannot pile up; [`probe_idle`]
//! is the zero-timeout check a pooled socket passes before reuse.

use std::borrow::Borrow;
use std::net::TcpStream;

use crate::nio::{read_ready, ReadOutcome};
use crate::sync;

/// A capped store of idle reusable resources, keyed by peer (an HTTP
/// authority, a server address).
///
/// At most `per_key` items are retained per key and `total` across all
/// keys.  A check-in beyond the per-key cap is refused; a check-in that
/// would exceed the total cap evicts the oldest idle item of any key,
/// so keys that are never checked out again (a peer that shut down)
/// age out instead of blocking reuse for live peers.  Check-out is most
/// recently checked in first.  The set is extracted from its pools so
/// its check-in/check-out races can be model-tested in isolation
/// (`cargo xtask loom`).
pub struct IdleSet<K, T> {
    per_key: usize,
    total: usize,
    /// Idle items, oldest check-in first.
    idle: sync::Mutex<Vec<(K, T)>>,
}

impl<K: PartialEq, T> IdleSet<K, T> {
    /// An empty set retaining at most `per_key` items per key and
    /// `total` items overall.
    pub fn new(per_key: usize, total: usize) -> IdleSet<K, T> {
        IdleSet { per_key, total, idle: sync::Mutex::new(Vec::new()) }
    }

    /// Take one idle item for `key`, most recently checked in first.
    pub fn check_out<Q>(&self, key: &Q) -> Option<T>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let mut idle = sync::lock(&self.idle);
        let i = idle.iter().rposition(|(k, _)| k.borrow() == key)?;
        Some(idle.remove(i).1)
    }

    /// Return an item for `key`.  Returns the item that leaves the set,
    /// if any, for the caller to drop: `item` itself when `key` already
    /// holds its cap, or the oldest idle item, evicted to stay within the
    /// total cap.  `None` means the set grew by one.
    pub fn check_in(&self, key: K, item: T) -> Option<T> {
        let mut idle = sync::lock(&self.idle);
        let held = idle.iter().filter(|(k, _)| *k == key).count();
        if held >= self.per_key || self.total == 0 {
            return Some(item);
        }
        let evicted = (idle.len() >= self.total).then(|| idle.remove(0).1);
        idle.push((key, item));
        evicted
    }

    /// Total idle items across all keys.
    pub fn count(&self) -> usize {
        sync::lock(&self.idle).len()
    }

    /// Largest idle count held by any single key.
    pub fn max_per_key(&self) -> usize {
        let idle = sync::lock(&self.idle);
        idle.iter().map(|(k, _)| idle.iter().filter(|(o, _)| o == k).count()).max().unwrap_or(0)
    }

    /// Drop every idle item, returning how many were dropped.
    pub fn clear(&self) -> usize {
        let mut idle = sync::lock(&self.idle);
        let dropped = idle.len();
        idle.clear();
        dropped
    }
}

/// Zero-timeout health probe on an idle keep-alive connection: between
/// responses the peer owes us nothing, so a healthy socket reads as
/// `WouldBlock`.  EOF means the server closed it; readable bytes mean a
/// desynchronized connection (neither is usable).  The probe itself
/// never blocks — the socket is flipped to nonblocking for one
/// `read_ready` call and restored before it is handed out.
pub fn probe_idle(mut stream: TcpStream) -> Option<TcpStream> {
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let mut scratch = [0u8; 16];
    let healthy = matches!(read_ready(&mut stream, &mut scratch), Ok(ReadOutcome::NotReady));
    if healthy && stream.set_nonblocking(false).is_ok() {
        Some(stream)
    } else {
        None
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn caps_per_key_not_globally() {
        let set = IdleSet::new(2, 16);
        assert_eq!(set.check_in("a:80", 1), None);
        assert_eq!(set.check_in("a:80", 2), None);
        assert_eq!(set.check_in("a:80", 3), Some(3), "per-key cap reached");
        assert_eq!(set.check_in("b:80", 4), None, "other keys unaffected");
        assert_eq!(set.count(), 3);
        assert_eq!(set.max_per_key(), 2);
    }

    #[test]
    fn total_cap_evicts_the_oldest_item_of_any_key() {
        let set = IdleSet::new(2, 3);
        set.check_in("a:80", 1);
        set.check_in("b:80", 2);
        set.check_in("c:80", 3);
        assert_eq!(set.check_in("d:80", 4), Some(1), "oldest item makes room");
        assert_eq!(set.count(), 3);
        assert_eq!(set.check_out("a:80"), None);
        assert_eq!(set.check_out("d:80"), Some(4));
        // A total cap of zero retains nothing.
        let none = IdleSet::new(2, 0);
        assert_eq!(none.check_in("a:80", 1), Some(1));
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn check_out_is_lifo_and_empties() {
        let set = IdleSet::new(4, 16);
        set.check_in("a:80", 1);
        set.check_in("a:80", 2);
        assert_eq!(set.check_out("a:80"), Some(2));
        assert_eq!(set.check_out("a:80"), Some(1));
        assert_eq!(set.check_out("a:80"), None);
        assert_eq!(set.check_out("missing:80"), None);
    }

    #[test]
    fn clear_drops_everything() {
        let set = IdleSet::new(4, 16);
        set.check_in("a:80", 1);
        set.check_in("b:80", 2);
        assert_eq!(set.clear(), 2);
        assert_eq!(set.count(), 0);
        assert_eq!(set.max_per_key(), 0);
    }

    #[test]
    fn probe_keeps_quiet_sockets_and_drops_closed_ones() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let client = probe_idle(client).expect("a quiet connection is healthy");
        assert!(client.read_timeout().is_ok(), "handed back usable");
        drop(server_side);
        // The FIN is queued on the loopback socket once the peer closed.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(probe_idle(client).is_none(), "EOF means the peer closed it");
    }
}

/// Model tests: `RUSTFLAGS="--cfg loom" cargo test -p openmeta-net`
/// (driven by `cargo xtask loom`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use std::sync::Arc;

    /// Concurrent check-ins never exceed the per-key cap, and every item
    /// is either retained or handed back — none lost.
    #[test]
    fn loom_idle_set_cap_under_contention() {
        loom::model(|| {
            let set = Arc::new(IdleSet::new(1, 4));
            let handles: Vec<_> = (0..2)
                .map(|n| {
                    let set = set.clone();
                    loom::thread::spawn(move || set.check_in("a:80", n))
                })
                .collect();
            let retained = handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .filter(Option::is_none)
                .count();
            assert_eq!(retained, 1, "exactly one concurrent check-in may win");
            assert!(set.max_per_key() <= 1, "cap must hold");
            assert!(set.check_out("a:80").is_some());
            assert!(set.check_out("a:80").is_none(), "cap 1 retains at most one");
        });
    }

    /// A checker-out racing a checker-in sees each item at most once.
    #[test]
    fn loom_check_out_races_check_in() {
        loom::model(|| {
            let set = Arc::new(IdleSet::new(4, 4));
            let set2 = set.clone();
            let producer = loom::thread::spawn(move || {
                set2.check_in("a:80", 7);
            });
            let set3 = set.clone();
            let consumer = loom::thread::spawn(move || set3.check_out("a:80"));
            producer.join().expect("join");
            let taken = consumer.join().expect("join");
            let remaining = set.check_out("a:80");
            match taken {
                Some(v) => {
                    assert_eq!(v, 7);
                    assert_eq!(remaining, None, "item must not be duplicated");
                }
                None => assert_eq!(remaining, Some(7), "item must not be lost"),
            }
        });
    }
}
