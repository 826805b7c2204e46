//! A request line that is not UTF-8 is malformed input like any other: it
//! gets one typed `parse` error and counts in `parse_errors`, and the lines
//! pipelined behind it are still answered, on `served` and through `routed`.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use iconv_serve::protocol::parse_response;
use iconv_serve::{spawn, spawn_router, ErrorKind, Response, RouterConfig, ServerConfig};

/// A ping whose id holds a byte that is not UTF-8, then a plain ping.
const LINES: &[u8] = b"{\"op\":\"ping\",\"id\":\"\xff\"}\n{\"op\":\"ping\"}\n";

/// Send `LINES`, close the sending half, and read every answer up to EOF.
fn exchange(addr: SocketAddr) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(LINES).expect("send");
    stream
        .shutdown(Shutdown::Write)
        .expect("close the sending half");
    let answers = BufReader::new(stream).lines();
    answers
        .map(|line| parse_response(&line.expect("read")).expect("an answer"))
        .collect()
}

fn assert_parse_error_then_pong(answers: &[Response]) {
    assert_eq!(answers.len(), 2, "{answers:?}");
    let parse = matches!(
        answers[0],
        Response::Error {
            kind: ErrorKind::Parse,
            ..
        }
    );
    assert!(parse, "{answers:?}");
    assert!(matches!(answers[1], Response::Pong { .. }), "{answers:?}");
}

#[test]
fn served_answers_a_line_that_is_not_utf8_and_reads_on() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    assert_parse_error_then_pong(&exchange(server.local_addr()));
    assert_eq!(server.shutdown().parse_errors, 1);
}

#[test]
fn routed_answers_a_line_that_is_not_utf8_and_reads_on() {
    let backend = spawn(ServerConfig::default()).expect("spawn backend");
    let router = spawn_router(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("spawn router");
    assert_parse_error_then_pong(&exchange(router.local_addr()));
    assert_eq!(router.shutdown().parse_errors, 1);
    assert_eq!(backend.shutdown().parse_errors, 0);
}
