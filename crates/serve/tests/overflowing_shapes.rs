//! A layer whose derived counts do not fit in a `usize` is a bad request:
//! one typed `bad-request` answer, counted in `parse_errors`, and the lines
//! pipelined behind it are still answered. The first line's padded height
//! overflows while the request is parsed; the second line's extents are
//! small, but its IFMap alone holds over 2^64 elements.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use iconv_serve::protocol::parse_response;
use iconv_serve::{spawn, ErrorKind, Response, ServerConfig};

const LINES: &str = concat!(
    r#"{"op":"conv","layer":{"n":1,"ci":1,"hi":18446744073709551615,"wi":8,"co":1,"hf":1,"wf":1,"pad":1}}"#,
    "\n",
    r#"{"op":"conv","layer":{"n":99999999,"ci":99999999999,"hi":56,"wi":56,"co":64,"hf":3,"wf":3,"pad":1}}"#,
    "\n",
    r#"{"op":"ping"}"#,
    "\n",
);

#[test]
fn layers_whose_counts_overflow_are_bad_requests() {
    let server = spawn(ServerConfig::default()).expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(LINES.as_bytes()).expect("send");
    stream
        .shutdown(Shutdown::Write)
        .expect("close the sending half");
    let answers: Vec<Response> = BufReader::new(stream)
        .lines()
        .map(|line| parse_response(&line.expect("read")).expect("an answer"))
        .collect();

    assert_eq!(answers.len(), 3, "{answers:?}");
    for answer in &answers[..2] {
        let bad = matches!(
            answer,
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        );
        assert!(bad, "{answers:?}");
    }
    assert!(matches!(answers[2], Response::Pong { .. }), "{answers:?}");
    let stats = server.shutdown();
    assert_eq!((stats.parse_errors, stats.requests), (2, 0));
}
