//! The `oracled` serve loop: a std `TcpListener` accept thread plus
//! one handler thread per connection, all answering from one shared
//! [`Oracle`].
//!
//! Liveness and shutdown:
//!
//! - The accept loop polls a non-blocking listener so a `shutdown`
//!   request (or [`ServerHandle::shutdown`]) is noticed promptly; it
//!   then stops accepting and joins every connection thread.
//! - Connection threads read with a short socket timeout and only honor
//!   the shutdown flag **between frames**: a frame whose header has
//!   started arriving is always read to completion and answered, so a
//!   graceful shutdown never tears an in-flight request. In-flight
//!   explorations likewise run to completion (and land in the store).
//! - A protocol violation (torn frame, sequence gap, oversized length)
//!   drops that connection only; the server keeps serving others.

use crate::oracle::Oracle;
use crate::proto::{
    decode_query, encode_stats, MAX_FRAME, REQ_QUERY, REQ_SHUTDOWN, REQ_STATS, RESP_ERROR,
    RESP_RESULT, RESP_SHUTDOWN_ACK, RESP_STATS,
};
use ppc_bits::framed::{Receiver, Sender};
use ppc_litmus::Job;
use ppc_model::net::{is_timeout, Conn, Listener, NetParams};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept-loop poll period while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Read-timeout applied to connection sockets: the granularity at
/// which an idle connection notices the shutdown flag.
const CONN_POLL_MS: u64 = 100;

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (OS-assigned port, read it
    /// back from [`ServerHandle::port`]).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
        }
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins its threads.
pub struct ServerHandle {
    port: u16,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Whether shutdown has been requested (by a client's `shutdown`
    /// frame or [`ServerHandle::shutdown`]).
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Request shutdown and wait for the accept loop and every
    /// connection thread to finish.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server stops (e.g. a client sent `shutdown`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and start serving. Returns as soon as the listener is bound —
/// the port is immediately connectable.
///
/// # Errors
///
/// Propagates bind errors.
pub fn serve(cfg: &ServerConfig, oracle: Arc<Oracle>) -> io::Result<ServerHandle> {
    let listener = Listener::bind_tcp(cfg.addr.as_str())?;
    let port = listener
        .tcp_port()
        .ok_or_else(|| io::Error::other("no TCP port"))?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let accept_thread = std::thread::spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !flag.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(conn) => {
                    let oracle = Arc::clone(&oracle);
                    let flag = Arc::clone(&flag);
                    conns.push(std::thread::spawn(move || {
                        // A broken connection is that client's problem;
                        // the error is logged and the server lives on.
                        if let Err(e) = handle_conn(conn, &oracle, &flag) {
                            eprintln!("oracled: connection error: {e}");
                        }
                    }));
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    eprintln!("oracled: accept error: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            conns.retain(|c| !c.is_finished());
        }
        for c in conns {
            let _ = c.join();
        }
    });
    Ok(ServerHandle {
        port,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Serve one connection until EOF, shutdown, or a protocol error.
fn handle_conn(mut conn: Conn, oracle: &Oracle, flag: &AtomicBool) -> io::Result<()> {
    // Short read timeout = shutdown-poll granularity. (Writes keep a
    // generous bound so a stalled client can't wedge a handler
    // forever; responses are small.)
    conn.apply_net(&NetParams::from_millis(CONN_POLL_MS, CONN_POLL_MS * 2))?;
    let mut rx = Receiver::new(MAX_FRAME);
    let mut tx = Sender::new(MAX_FRAME);
    loop {
        // The read timeout is only a poll tick: mid-frame it is ridden
        // out (a frame whose header has started arriving is always read
        // to completion), at a frame boundary it ends the connection
        // once shutdown has been requested.
        let keep_waiting = |mid_frame| mid_frame || !flag.load(Ordering::Relaxed);
        let frame = match rx.recv(&mut conn, keep_waiting) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),                 // clean EOF
            Err(e) if is_timeout(&e) => return Ok(()), // idle shutdown
            Err(e) => return Err(e),
        };
        match frame.tag {
            REQ_QUERY => {
                let req = match decode_query(&frame.body) {
                    Ok(req) => req,
                    Err(e) => {
                        tx.send(&mut conn, RESP_ERROR, format!("bad query: {e}").as_bytes())?;
                        continue;
                    }
                };
                match Job::from_source(&req.source, req.expect, &req.pinned_by) {
                    Ok(job) => {
                        let out = oracle.query(&job, &req.budget);
                        let mut body = Vec::with_capacity(1 + out.line.len());
                        body.push(u8::from(out.cached));
                        body.extend_from_slice(out.line.as_bytes());
                        tx.send(&mut conn, RESP_RESULT, &body)?;
                    }
                    Err(e) => {
                        tx.send(
                            &mut conn,
                            RESP_ERROR,
                            format!("parse error: {e}").as_bytes(),
                        )?;
                    }
                }
            }
            REQ_STATS => {
                tx.send(&mut conn, RESP_STATS, &encode_stats(&oracle.stats()))?;
            }
            REQ_SHUTDOWN => {
                tx.send(&mut conn, RESP_SHUTDOWN_ACK, b"")?;
                flag.store(true, Ordering::Relaxed);
                return Ok(());
            }
            tag => {
                tx.send(
                    &mut conn,
                    RESP_ERROR,
                    format!("unknown request tag {tag:#04x}").as_bytes(),
                )?;
            }
        }
    }
}
