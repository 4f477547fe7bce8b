//! Socket-timeout regression tests: clients must fail fast against a peer
//! that accepts connections but never replies, and the server must reap
//! accepted connections that never send a first frame (half-open hygiene)
//! without ever reaping an established connection.

mod common;

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use common::wait_until;
use eclipse_core::exec::ExecutionContext;
use eclipse_serve::client::{Client, ClientError, PipelinedClient};
use eclipse_serve::protocol::{read_frame, write_frame, Response, MAX_FRAME_LEN, PROTOCOL_V2};
use eclipse_serve::server::{Server, ServerConfig};

#[test]
fn clients_time_out_against_an_accepting_but_silent_peer() {
    // A listener whose backlog completes TCP handshakes but that never
    // reads or writes: connects succeed, replies never come.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap();

    // Both clients open with the Hello handshake, and the timeout covers
    // it, so even connection setup cannot hang.
    let started = Instant::now();
    match Client::connect_timeout(addr, Duration::from_millis(500)) {
        Err(ClientError::SocketTimeout) => {}
        other => panic!("expected SocketTimeout from the handshake, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a silent peer must not hang the client: {:?}",
        started.elapsed()
    );
    let started = Instant::now();
    match PipelinedClient::connect_timeout(addr, 8, Duration::from_millis(200)) {
        Err(ClientError::SocketTimeout) => {}
        other => panic!("expected SocketTimeout from the handshake, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));

    // A peer that acknowledges the handshake and then goes silent: connect
    // succeeds, and the first call's read times out as a typed error.
    let mute = TcpListener::bind("127.0.0.1:0").unwrap();
    let mute_addr = mute.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = mute.accept().unwrap();
        read_frame(&mut stream).unwrap().expect("Hello frame");
        let ack = Response::HelloAck {
            version: PROTOCOL_V2,
            pipe_size: 1,
            max_frame_len: MAX_FRAME_LEN,
        };
        write_frame(&mut stream, &ack.encode()).unwrap();
        // Swallow requests without answering until the client hangs up.
        let mut buf = [0u8; 64];
        while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
    });
    let started = Instant::now();
    let mut client = Client::connect_timeout(mute_addr, Duration::from_millis(500)).unwrap();
    client
        .set_io_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    match client.ping() {
        Err(ClientError::SocketTimeout) => {}
        other => panic!("expected SocketTimeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a peer gone silent must not hang the client: {:?}",
        started.elapsed()
    );
    drop(client);
    peer.join().unwrap();
}

#[test]
fn first_frame_less_connections_are_reaped_but_established_ones_are_not() {
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config("127.0.0.1:0", ExecutionContext::serial(), config)
        .unwrap()
        .spawn()
        .unwrap();

    // An established connection (one that sent its first frame) lives far
    // beyond the idle window.
    let mut established = Client::connect(handle.addr()).unwrap();
    established.ping().unwrap();

    // A connection that never sends anything is reaped: the server closes
    // it and our read observes EOF.
    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let reaped = wait_until(
        || {
            let mut buf = [0u8; 16];
            matches!(idle.read(&mut buf), Ok(0))
        },
        Duration::from_secs(5),
    );
    assert!(reaped, "a first-frame-less connection was never reaped");

    // Well past the idle window, the established connection still answers.
    std::thread::sleep(Duration::from_millis(400));
    established.ping().unwrap();
    handle.shutdown();
}
