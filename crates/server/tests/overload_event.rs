//! The overload events of `tests/overload.rs` — sheds, degraded mode,
//! publish deadlines, idle and mid-request timeouts, shutdown, and the
//! client's retry path — each replayed under a second, harder traffic
//! shape (DESIGN.md §12): a concurrent flood instead of a sequential one,
//! degraded mode seen from a connection that never failed a write, a
//! deadline whose requester hangs up, idle expiry admitting a *queued*
//! connection, a peer trickling bytes faster than the read tick, shutdown
//! with half-written lines and a queued connection, and more than one
//! consecutive shed inside the client's retry budget.

use betalike_faults::{ChaosVfs, FaultPlan};
use betalike_microdata::json::Json;
use betalike_server::wire::{retryable_error, ERR_OVERLOADED};
use betalike_server::{
    serve, Algo, Client, ClientError, DatasetSpec, PublishRequest, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "betalike-overload-event-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthetic(seed: u64) -> DatasetSpec {
    DatasetSpec::Synthetic { rows: 200, seed }
}

/// Reads one reply line; `None` on a read timeout, `Some("")` on EOF.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(_) => Some(line),
        Err(_) => None,
    }
}

/// What one flooding connection saw.
enum Outcome {
    Served,
    Shed,
    Waiting,
}

/// Ten connections flood a `threads=2, queue=1` server *at once*, each
/// holding its connection open after its reply. However the acceptor
/// and workers interleave, at most `workers + queue` connections are
/// admitted, every other one is shed with one parseable retryable
/// `overloaded` line (never a bare disconnect), `health` counts exactly
/// the sheds the clients saw, and the waiting connection is served once
/// an admitted one leaves.
#[test]
fn flood_sheds_with_overloaded_not_disconnects() {
    let server = serve(&ServerConfig {
        threads: 2,
        queue: 1,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    let barrier = Arc::new(std::sync::Barrier::new(10));
    let flood: Vec<_> = (0..10)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_millis(1500)))
                    .expect("timeout");
                stream
                    .write_all(b"{\"op\":\"ping\"}\n")
                    .expect("write ping");
                let mut reader = BufReader::new(stream);
                let outcome = match read_reply(&mut reader) {
                    None => Outcome::Waiting,
                    Some(line) => {
                        assert!(!line.is_empty(), "a flooded connection got no reply");
                        let doc = Json::parse(line.trim()).expect("reply parses");
                        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                            Outcome::Served
                        } else {
                            assert_eq!(
                                doc.get("code").and_then(Json::as_str),
                                Some("overloaded"),
                                "shed reply must carry the stable code: {line}"
                            );
                            assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));
                            let mut rest = String::new();
                            assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
                            Outcome::Shed
                        }
                    }
                };
                (outcome, reader)
            })
        })
        .collect();
    let results: Vec<_> = flood
        .into_iter()
        .map(|t| t.join().expect("flood thread"))
        .collect();

    let mut served = Vec::new();
    let mut waiting = Vec::new();
    let mut shed = 0u64;
    for (outcome, reader) in results {
        match outcome {
            Outcome::Served => served.push(reader),
            Outcome::Waiting => waiting.push(reader),
            Outcome::Shed => shed += 1,
        }
    }
    assert!(
        !served.is_empty(),
        "the flood must get some connection served"
    );
    assert!(served.len() <= 2, "at most one connection per worker");
    assert!(
        waiting.len() <= 1,
        "at most queue-capacity connections wait"
    );
    assert_eq!(served.len() + waiting.len() + shed as usize, 10);

    // The admitted connections leave; a waiting one is then served.
    drop(served);
    for mut reader in waiting {
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(5000)))
            .expect("timeout");
        let line = read_reply(&mut reader).expect("queued ping answered");
        let doc = Json::parse(line.trim()).expect("pong parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }

    let mut client = Client::connect(addr).expect("connect for health");
    let doc = client.health().expect("health");
    assert_eq!(doc.get("shed").and_then(Json::as_u64), Some(shed));
    assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(0));
    drop(client);
    server.shutdown_and_join();
}

/// Degraded mode is server-wide: after one connection's publishes trip
/// the store, a *second* connection that never failed a write is refused
/// cold publishes too, still gets warm publishes and health, and sees
/// the recovery that the first connection's successful save causes.
#[test]
fn degraded_store_turns_server_read_only_until_recovery() {
    let dir = temp_dir("degraded");
    let chaos = Arc::new(ChaosVfs::new(FaultPlan::None));
    let server = serve(&ServerConfig {
        threads: 2,
        data_dir: Some(dir.clone()),
        vfs: Some(chaos.clone()),
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut writer = Client::connect(server.addr()).expect("connect writer");
    let mut observer = Client::connect(server.addr()).expect("connect observer");

    let healthy_request = PublishRequest::new(synthetic(1), Algo::Anatomy);
    let healthy = writer.publish(&healthy_request).expect("healthy publish");

    chaos.set_plan(FaultPlan::FailWrites);
    for seed in 2..=(1 + u64::from(betalike_store::disk::DEGRADED_AFTER)) {
        writer
            .publish(&PublishRequest::new(synthetic(seed), Algo::Anatomy))
            .expect("publish succeeds even when its persist fails");
    }

    let err = observer
        .publish(&PublishRequest::new(synthetic(99), Algo::Anatomy))
        .expect_err("degraded mode refuses every connection's cold publish");
    match &err {
        ClientError::Retryable { code, .. } => assert_eq!(code, "degraded"),
        other => panic!("expected a retryable `degraded` refusal, got {other:?}"),
    }
    let warm = observer
        .publish(&healthy_request)
        .expect("a warm publish needs no write and is still served");
    assert!(warm.cached);
    assert_eq!(warm.handle, healthy.handle);
    let doc = observer.health().expect("health");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("degraded"));

    chaos.set_plan(FaultPlan::None);
    writer
        .publish(&PublishRequest::new(synthetic(99), Algo::Anatomy))
        .expect("publish after recovery");
    let doc = observer.health().expect("health after recovery");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    drop(observer);
    drop(writer);
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish whose `deadline_ms` expires keeps computing even when its
/// requester hangs up right after the `deadline` error: the detached
/// computation belongs to the server, not the connection. Meanwhile
/// other connections are served, and a fresh connection later collects
/// the finished artifact as a cache hit.
#[test]
fn publish_deadline_cancels_the_request_not_the_computation() {
    let server = serve(&ServerConfig {
        threads: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let request = PublishRequest::new(
        DatasetSpec::Census {
            rows: 8000,
            seed: 42,
        },
        Algo::Burel,
    );
    let mut doc = request.to_json();
    if let Json::Obj(members) = &mut doc {
        members.push(("deadline_ms".to_string(), Json::Num(1.0)));
    }
    let mut requester = Client::connect(server.addr()).expect("connect");
    let err = requester
        .call(&doc)
        .expect_err("a 1ms deadline must expire");
    match &err {
        ClientError::Retryable { code, .. } => assert_eq!(code, "deadline"),
        other => panic!("expected a retryable `deadline` error, got {other:?}"),
    }
    drop(requester);

    let mut other = Client::connect(server.addr()).expect("second connect");
    other
        .ping()
        .expect("other connections are served during the compute");
    drop(other);

    let mut collector = Client::connect(server.addr()).expect("third connect");
    let reply = collector
        .publish(&request)
        .expect("a fresh connection collects the background result");
    assert!(reply.cached, "the detached computation must be reused");
    drop(collector);
    server.shutdown_and_join();
}

/// With one worker and one queue slot, a connection that goes idle holds
/// the worker while a second connection waits in the queue with a ping
/// already written. Idle expiry closes the first connection and frees
/// its slot: the queued ping is answered, not shed and not stranded.
#[test]
fn idle_connections_expire_and_free_their_slot() {
    let server = serve(&ServerConfig {
        threads: 1,
        queue: 1,
        read_timeout_ms: 25,
        idle_timeout_ms: 300,
        ..Default::default()
    })
    .expect("bind");
    let mut idle = Client::connect(server.addr()).expect("connect");
    idle.ping().expect("first ping");

    let mut queued = TcpStream::connect(server.addr()).expect("connect queued");
    queued
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    queued
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write ping");
    let mut reader = BufReader::new(queued);
    let line = read_reply(&mut reader).expect("queued ping answered after idle expiry");
    let doc = Json::parse(line.trim()).expect("pong parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{line}");

    assert!(
        idle.ping().is_err(),
        "the idle connection must have been closed"
    );
    drop(reader);
    server.shutdown_and_join();
}

/// A peer that trickles a request line one byte at a time, faster than
/// the read tick, still gets the retryable `deadline` error on time:
/// bytes that only extend a partial line do not buy it more time. The
/// complete request sent before the trickle is answered first.
#[test]
fn stalled_mid_request_lines_get_a_deadline_error() {
    let server = serve(&ServerConfig {
        threads: 1,
        read_timeout_ms: 25,
        request_timeout_ms: 200,
        ..Default::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(5000)))
        .expect("timeout");
    stream
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("complete request");

    // One byte every 5ms for up to 4s: the line never completes, and no
    // gap between bytes is as long as the 25ms read tick.
    let mut trickle = stream.try_clone().expect("clone");
    let trickler = std::thread::spawn(move || {
        let started = Instant::now();
        let mut sent = 0u64;
        while started.elapsed() < Duration::from_secs(4) {
            let byte: &[u8] = if sent == 0 { b"{" } else { b" " };
            if trickle.write_all(byte).is_err() {
                break;
            }
            sent += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let pong = read_reply(&mut reader).expect("pong");
    let doc = Json::parse(pong.trim()).expect("pong parses");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{pong}");

    let started = Instant::now();
    let line = read_reply(&mut reader).expect("deadline reply");
    let elapsed = started.elapsed();
    let doc = Json::parse(line.trim()).expect("deadline reply parses");
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("deadline"));
    assert_eq!(doc.get("retryable").and_then(Json::as_bool), Some(true));
    assert!(
        elapsed < Duration::from_secs(2),
        "the trickled line got its deadline after {elapsed:?} (timeout is 200ms)"
    );
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    trickler.join().expect("trickle thread");
    server.shutdown_and_join();
}

/// Shutdown stays bounded by the workers' read tick even when no timer
/// could end the connections: both workers hold half-written request
/// lines (request and idle timeouts off) and a third connection waits in
/// the queue. Every one of them is closed by the time shutdown returns.
#[test]
fn shutdown_latency_is_bounded_by_the_loop_tick() {
    let server = serve(&ServerConfig {
        threads: 2,
        queue: 2,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping().expect("ping");
        held.push(client);
    }
    let mut streams = Vec::new();
    for partial in [&b"{\"op\":\"pi"[..], &b"{\"op\":\"ping\"}\n"[..]] {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(5000)))
            .expect("timeout");
        stream.write_all(partial).expect("write");
        streams.push(stream);
    }
    // Free one worker so it picks up the half-written line, leaving the
    // complete ping queued behind the other held connection.
    drop(held.remove(0));
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    server.shutdown_and_join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with parked and queued connections took {elapsed:?} (tick is 25ms)"
    );
    // Every connection the workers owned or had queued is closed: the
    // reads below end in EOF, not in the 5s read timeout.
    for stream in streams {
        let mut rest = Vec::new();
        let mut reader = BufReader::new(stream);
        assert!(
            reader.read_to_end(&mut rest).is_ok(),
            "a parked or queued connection outlived shutdown"
        );
    }
    drop(held);
}

/// Accepts connections on a fresh port: the first `sheds` each get one
/// injected `overloaded` line after their first request; every later one
/// is piped transparently to `backend`.
fn shedding_proxy(backend: SocketAddr, sheds: usize) -> SocketAddr {
    let proxy = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        for _ in 0..sheds {
            if let Ok((stream, _)) = proxy.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                let mut stream = stream;
                let reply = retryable_error(ERR_OVERLOADED, "injected shed").compact() + "\n";
                let _ = stream.write_all(reply.as_bytes());
            }
        }
        while let Ok((client_side, _)) = proxy.accept() {
            let Ok(server_side) = TcpStream::connect(backend) else {
                break;
            };
            let mut up_read = client_side.try_clone().expect("clone");
            let mut up_write = server_side.try_clone().expect("clone");
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut up_read, &mut up_write);
                let _ = up_write.shutdown(std::net::Shutdown::Write);
            });
            let mut down_read = server_side;
            let mut down_write = client_side;
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut down_read, &mut down_write);
                let _ = down_write.shutdown(std::net::Shutdown::Write);
            });
        }
    });
    proxy_addr
}

/// The real `betalike-client smoke` binary, shed on two consecutive
/// connections by a proxy, spends two of its three retries and still
/// exits 0 with every answer bit-identical; the third attempt is the one
/// that gets through.
#[test]
fn client_smoke_retries_through_an_injected_shed() {
    let server = serve(&ServerConfig {
        threads: 4,
        read_timeout_ms: 25,
        ..Default::default()
    })
    .expect("bind");
    let proxy_addr = shedding_proxy(server.addr(), 2);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_betalike-client"))
        .args([
            "smoke",
            "--addr",
            &proxy_addr.to_string(),
            "--retries",
            "3",
            "--retry-seed",
            "7",
            "--rows",
            "300",
        ])
        .output()
        .expect("run betalike-client");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "smoke through two sheds failed\nstdout: {}\nstderr: {stderr}",
        String::from_utf8_lossy(&output.stdout),
    );
    assert!(stderr.contains("attempt 1/4 failed retryably"), "{stderr}");
    assert!(stderr.contains("attempt 2/4 failed retryably"), "{stderr}");
    assert!(!stderr.contains("attempt 3/4"), "{stderr}");
    server.shutdown_and_join();
}
