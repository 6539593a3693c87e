//! The hub's connection bound: it serves at most `MAX_HUB_CONNECTIONS`
//! connections at once, closes one more at once, unanswered, counts it in
//! `cleanml_hub_busy_total`, and serves again once connections close.
//!
//! A binary of its own: the test holds every connection slot of its
//! engine, and the process-wide HTTP counters other suites check must not
//! see its requests.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cleanml_engine::remote::coordinator::MAX_HUB_CONNECTIONS;
use cleanml_engine::{Engine, EngineConfig};

/// `GET /metrics`, or `None` when the hub closed the connection without
/// an answer.
fn scrape(addr: SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to hub");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    let text = String::from_utf8_lossy(&out).into_owned();
    text.starts_with("HTTP/1.1 200").then_some(text)
}

fn busy_total(scrape: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix("cleanml_hub_busy_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("cleanml_hub_busy_total missing:\n{scrape}"))
}

#[test]
fn hub_refuses_connections_over_its_cap_and_serves_again_after() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        listen: Some("127.0.0.1:0".into()),
        ..Default::default()
    });
    let addr = engine.remote_addr().expect("hub bound");
    let before = busy_total(&scrape(addr).expect("metrics served before the flood"));

    // Fill every slot with sockets that never speak: each holds its
    // connection thread for the handshake budget (10 s). Let the accept
    // and service loops (20 ms polls) take them all before the extra one
    // arrives.
    let idle: Vec<TcpStream> =
        (0..MAX_HUB_CONNECTIONS).map(|_| TcpStream::connect(addr).expect("idle connect")).collect();
    std::thread::sleep(Duration::from_millis(500));

    // One more: closed at once, not after the handshake budget.
    let mut extra = TcpStream::connect(addr).expect("extra connect");
    extra.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let started = Instant::now();
    let mut buf = [0u8; 16];
    match extra.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("connection over the cap was not closed: {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "refusal waited for a slot");

    // Closing the idle sockets frees their slots: /metrics is served
    // again, and the refusal was counted.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    let served = loop {
        if let Some(text) = scrape(addr) {
            break text;
        }
        assert!(Instant::now() < deadline, "metrics not served after the idle sockets closed");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(busy_total(&served) > before, "refusal not counted:\n{served}");
}
