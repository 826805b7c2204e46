//! The request-line cap. The largest legitimate request line fits under
//! `MAX_LINE_BYTES` with room to spare, and a line that exceeds it gets
//! exactly one typed `parse` error and then EOF, on `served` directly and
//! through `routed`. Other connections keep working, and the request
//! ledger stays exact.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use iconv_api::table::workload_works;
use iconv_core::PipelineSchedule;
use iconv_serve::protocol::encode_batch;
use iconv_serve::{
    spawn, spawn_router, Client, ErrorKind, Response, RouterConfig, ServerConfig, TpuChip,
    TpuHwSpec, Work, DEFAULT_CONNECT_TIMEOUT, MAX_LINE_BYTES, MAX_SWEEP_ITEMS,
};
use iconv_tensor::Layout;

/// A longest legitimate batch item: AlexNet conv1 (the table's widest
/// layer spelling) under TPU channel-first, with every TPU-v3 hardware
/// override spelled out (274 bytes).
fn longest_item() -> Work {
    let Work::TpuConv { shape, mode, .. } = workload_works(true)[0] else {
        panic!("the table opens with a TPU conv");
    };
    Work::TpuConv {
        shape,
        mode,
        hw: TpuHwSpec {
            chip: TpuChip::V3,
            array: Some(256),
            word_elems: Some(16),
            mxus: Some(4),
            layout: Some(Layout::Nchw),
            schedule: Some(PipelineSchedule::DoubleBuffered),
        },
    }
}

#[test]
fn the_largest_batch_fits_three_times_under_the_cap() {
    let line = encode_batch(None, &vec![longest_item(); MAX_SWEEP_ITEMS], None);
    assert!(
        3 * line.len() <= MAX_LINE_BYTES,
        "a {MAX_SWEEP_ITEMS}-item batch is {} bytes, over a third of the \
         {MAX_LINE_BYTES}-byte cap",
        line.len()
    );
}

/// Send one newline-free line of `MAX_LINE_BYTES + 1` bytes (and nothing
/// more, so the server never closes on unread input) and return everything
/// the server sends back before EOF.
fn send_overlong_line(addr: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that keeps reading waits forever: fail instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send the overlong line");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read reply") == 0 {
            return lines;
        }
        lines.push(line);
    }
}

fn assert_one_parse_error(replies: &[String]) {
    assert_eq!(replies.len(), 1, "one reply, then EOF: {replies:?}");
    match iconv_serve::protocol::parse_response(replies[0].trim_end()) {
        Ok(Response::Error { kind, detail, .. }) => {
            assert_eq!(kind, ErrorKind::Parse);
            assert_eq!(
                detail,
                format!("request line exceeds {MAX_LINE_BYTES} bytes")
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// A four-item batch on a fresh connection, checked for success.
fn fresh_connection_works(addr: &str) {
    let mut c = Client::connect_retry(addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let reply = c
        .batch(&workload_works(true)[..4], None)
        .expect("batch on a healthy connection");
    assert!(reply.iter().all(Result::is_ok), "{reply:?}");
}

#[test]
fn served_refuses_an_overlong_line_then_closes() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr().to_string();
    // An idle connection opened before the overlong line must survive it.
    let mut bystander = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");

    assert_one_parse_error(&send_overlong_line(&addr));

    fresh_connection_works(&addr);
    bystander.ping().expect("the bystander still answers");
    let stats = bystander.stats().expect("stats");
    assert_eq!(stats.parse_errors, 1);
    assert_eq!(stats.hits + stats.misses, stats.requests);
    server.shutdown();
}

#[test]
fn routed_refuses_an_overlong_line_then_closes() {
    let backend = spawn(ServerConfig::default()).expect("spawn backend");
    let router = spawn_router(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let addr = router.local_addr().to_string();
    let mut bystander = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");

    assert_one_parse_error(&send_overlong_line(&addr));

    fresh_connection_works(&addr);
    bystander.ping().expect("the bystander still answers");
    let stats = bystander.stats().expect("stats");
    assert_eq!(stats.hits + stats.misses, stats.requests);
    // The router refused the line itself; the backend never saw it.
    assert_eq!(stats.parse_errors, 0);
    assert_eq!(router.stats().parse_errors, 1);
    router.shutdown();
    backend.shutdown();
}

/// A line of exactly `MAX_LINE_BYTES` plus its newline is not over the
/// cap: it is parsed (and, being junk, rejected as an ordinary parse
/// error), and the connection stays open for the next request.
#[test]
fn a_line_at_the_cap_is_parsed_and_the_connection_stays_open() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut line = vec![b'x'; MAX_LINE_BYTES];
    line.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
    stream.write_all(&line).expect("send");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(reply.contains("\"error\":\"parse\""), "{reply}");
    assert!(!reply.contains("exceeds"), "{reply}");
    reply.clear();
    reader.read_line(&mut reply).expect("read pong");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    drop(reader);
    assert_eq!(server.shutdown().parse_errors, 1);
}
