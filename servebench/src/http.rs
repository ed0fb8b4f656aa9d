//! A minimal keep-alive HTTP/1.1 client that timestamps each exchange, and
//! parsers that turn `/query` answers back into rows.
//!
//! `first_ns`, taken once the first byte of the reply is readable, splits a
//! request into the server's share (from the start of the write to the
//! first reply byte) and the client's reading of the reply.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Instant;

use ct_common::query::QueryRow;
use ct_server::json::Json;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: the one clock every
/// client and engine span is stamped with.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One request/reply exchange.
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Reply body.
    pub body: Vec<u8>,
    /// First reply byte readable.
    pub first_ns: u64,
    /// Reply fully read.
    pub end_ns: u64,
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle disabled (the server does the same).
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the whole reply.
    pub fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Exchange> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: servebench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(closed());
        }
        let first_ns = now_ns();
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut length = 0usize;
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Exchange {
            status,
            body,
            first_ns,
            end_ns: now_ns(),
        })
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(closed());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

fn closed() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection",
    )
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Rows in an answer body, counted without parsing it: the JSON header's
/// `row_count`, or the CSV line count less the header.
pub fn row_count(body: &[u8], csv: bool) -> u64 {
    if csv {
        return body
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1) as u64;
    }
    const KEY: &[u8] = b"\"row_count\": ";
    body.windows(KEY.len())
        .position(|w| w == KEY)
        .map(|at| {
            body[at + KEY.len()..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0)
}

/// Parses a `/query` answer (JSON or CSV) into rows. The server prints
/// aggregates in shortest round-trip form, so the `f64`s come back exact.
pub fn parse_rows(body: &[u8], csv: bool) -> Result<Vec<QueryRow>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    if csv {
        return text
            .lines()
            .skip(1)
            .filter(|l| !l.is_empty())
            .map(|line| {
                let cells: Vec<&str> = line.split(',').collect();
                let (key, agg) = cells.split_at(cells.len() - 1);
                Ok(QueryRow {
                    key: key
                        .iter()
                        .map(|c| c.parse().map_err(|_| format!("bad CSV key {c:?}")))
                        .collect::<Result<_, _>>()?,
                    agg: agg[0]
                        .parse()
                        .map_err(|_| format!("bad CSV aggregate {:?}", agg[0]))?,
                })
            })
            .collect();
    }
    let doc = Json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("answer has no rows array")?;
    rows.iter()
        .map(|row| {
            let cells = row
                .as_array()
                .filter(|c| !c.is_empty())
                .ok_or("row is not an array")?;
            let (key, agg) = cells.split_at(cells.len() - 1);
            Ok(QueryRow {
                key: key
                    .iter()
                    .map(|c| c.as_u64().ok_or("row key is not an integer"))
                    .collect::<Result<_, _>>()?,
                agg: agg[0].as_f64().ok_or("row aggregate is not a number")?,
            })
        })
        .collect::<Result<_, &str>>()
        .map_err(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse_in_both_formats() {
        let json = br#"{"generation": 0, "columns": ["suppkey", "agg"], "row_count": 2, "rows": [[1, 2.5], [3, 40]]}"#;
        let rows = parse_rows(json, false).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, vec![1]);
        assert_eq!(rows[1].agg, 40.0);
        assert_eq!(row_count(json, false), 2);
        let csv = b"suppkey,agg\r\n1,2.5\r\n3,40\r\n";
        let rows = parse_rows(csv, true).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].agg, 2.5);
        assert_eq!(row_count(csv, true), 2);
    }
}
