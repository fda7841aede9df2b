//! Helpers shared by the integration tests that talk to a live
//! `/metrics` exposition listener.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One blocking HTTP/1.1 GET; returns `(status code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to the listener");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line");
    (status, body.to_string())
}
