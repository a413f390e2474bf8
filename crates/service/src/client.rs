//! The submitting side of the oracle service: connect, frame a query,
//! await the record line.
//!
//! Connections reuse `ppc_model::net::connect_backoff` (bounded-retry
//! backoff connect, `TCP_NODELAY`), and the client applies no read
//! deadline by default — a cold exploration legitimately takes as long
//! as it takes; the response arrives when the envelope is computed.

use crate::oracle::OracleStats;
use crate::proto::{
    decode_stats, encode_query, Budget, Frame, QueryRequest, MAX_FRAME, REQ_QUERY, REQ_SHUTDOWN,
    REQ_STATS, RESP_ERROR, RESP_RESULT, RESP_SHUTDOWN_ACK, RESP_STATS,
};
use ppc_bits::framed::{Receiver, Sender};
use ppc_litmus::Expectation;
use ppc_model::net::connect_backoff;
use std::io;
use std::net::TcpStream;

/// A server's answer to one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The record line (verbatim stored bytes on a cache hit).
    Result {
        /// Whether the server answered from its store.
        cached: bool,
        /// The JSONL `TestReport` line.
        line: String,
    },
    /// The server rejected the request (e.g. a parse error).
    Error(String),
}

/// One connection to an `oracled` server.
pub struct Client {
    conn: TcpStream,
    tx: Sender,
    rx: Receiver,
}

impl Client {
    /// Connect to `addr` (`host:port`) with bounded-retry backoff —
    /// a client may legitimately start before the server binds.
    ///
    /// # Errors
    ///
    /// The last connect error after retries are exhausted.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Ok(Client {
            conn: connect_backoff(addr)?,
            tx: Sender::new(MAX_FRAME),
            rx: Receiver::new(MAX_FRAME),
        })
    }

    /// One request/response round trip with sequence bookkeeping.
    fn roundtrip(&mut self, tag: u8, body: &[u8]) -> io::Result<Frame> {
        self.tx.send(&mut self.conn, tag, body)?;
        self.rx.recv(&mut self.conn, |_| false)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// Submit a litmus program.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors. A server-side rejection (parse
    /// error, bad request) is `Ok(Response::Error(..))`, not `Err`.
    pub fn query(
        &mut self,
        source: &str,
        expect: Expectation,
        pinned_by: &str,
        budget: Budget,
    ) -> io::Result<Response> {
        let body = encode_query(&QueryRequest {
            source: source.to_owned(),
            expect,
            pinned_by: pinned_by.to_owned(),
            budget,
        });
        let frame = self.roundtrip(REQ_QUERY, &body)?;
        match frame.tag {
            RESP_RESULT => {
                let (&cached, line) = frame.body.split_first().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "empty result body")
                })?;
                let line = String::from_utf8(line.to_vec()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "result line is not UTF-8")
                })?;
                Ok(Response::Result {
                    cached: cached != 0,
                    line,
                })
            }
            RESP_ERROR => Ok(Response::Error(
                String::from_utf8_lossy(&frame.body).into_owned(),
            )),
            tag => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {tag:#04x}"),
            )),
        }
    }

    /// Fetch the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn stats(&mut self) -> io::Result<OracleStats> {
        let frame = self.roundtrip(REQ_STATS, b"")?;
        if frame.tag != RESP_STATS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {:#04x}", frame.tag),
            ));
        }
        decode_stats(&frame.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad stats body: {e}")))
    }

    /// Ask the server to shut down gracefully; returns once the server
    /// acknowledges (it stops accepting after in-flight work drains).
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let frame = self.roundtrip(REQ_SHUTDOWN, b"")?;
        if frame.tag != RESP_SHUTDOWN_ACK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response tag {:#04x}", frame.tag),
            ));
        }
        Ok(())
    }
}
