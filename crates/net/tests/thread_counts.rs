//! The wire tier's thread budget as a count: a server runs its acceptor
//! plus one thread per connection, and `shutdown` joins them all.
//!
//! The count is every entry of `/proc/self/task` whose `comm` starts with
//! `chronorank-net` (the kernel cuts `comm` at 15 bytes, so every server
//! thread reads as `chronorank-net-`). That sees the whole process, so
//! this is a one-test binary: the tests in `server.rs` start servers
//! concurrently. `./ci.sh` prints the `pinned:` lines.

use chronorank_core::TemporalSet;
use chronorank_curve::PiecewiseLinear;
use chronorank_net::{NetClient, NetConfig, NetServer};
use chronorank_serve::ServeConfig;

fn net_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("chronorank-net"))
        .count()
}

#[test]
fn a_server_runs_one_thread_per_connection_plus_its_acceptor() {
    let curves: Vec<_> = (0..8)
        .map(|i| PiecewiseLinear::from_points(&[(0.0, i as f64), (100.0, 1.0)]).unwrap())
        .collect();
    let server = NetServer::start_serve(
        TemporalSet::from_curves(curves).unwrap(),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut clients: Vec<NetClient> =
        (0..3).map(|_| NetClient::connect(server.local_addr()).unwrap()).collect();
    // A PONG means the connection's thread is up and serving.
    for client in &mut clients {
        assert_eq!(client.ping(b"up").unwrap(), b"up");
    }
    let serving = net_threads();
    println!("pinned: net threads with 3 connections: {serving}");
    server.shutdown();
    // `join` returns once a thread has run its exit path, a moment before
    // the kernel unlinks it from `/proc/self/task`: re-read (never sleep)
    // until the joined threads are gone, a bounded number of times.
    let mut after = net_threads();
    for _ in 0..10_000 {
        if after == 0 {
            break;
        }
        after = net_threads();
    }
    println!("pinned: net threads after shutdown: {after}");
    assert_eq!(serving, 4, "1 acceptor + 3 connection threads");
    assert_eq!(after, 0, "shutdown joins every server thread");
}
