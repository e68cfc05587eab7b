//! TCP transport: a frame-per-batch client and a thread-per-connection
//! server over the [`crate::wire`] codec.
//!
//! The server accepts on a nonblocking listener so it can poll a stop
//! flag; each accepted connection gets a blocking handler thread that
//! reads request frames, executes them against a shared
//! [`StripedControlPlane`], and writes reply frames back. The client is
//! strictly request/reply per connection (closed loop) — pipelining is
//! expressed by batching ops, not by overlapping frames.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::{ReplyBatch, RequestBatch};
use crate::state::StripedControlPlane;
use crate::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
    FrameError, MAX_FRAME,
};

/// How long a handler waits for the next bytes of a frame its peer has
/// begun, or for its peer to take the next bytes of a reply. A peer that
/// stalls that long inside a frame, or stops reading replies, loses its
/// connection and the handler thread ends; between frames a peer may idle
/// for as long as it likes. The bound is per read and per write, not per
/// frame, so a slow link that keeps bytes moving never trips it. Ten
/// seconds is a round number far above any pause a sender makes inside a
/// frame it has begun writing, not a measurement.
const PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// A blocking control-plane client over one TCP connection.
///
/// The connection may sit idle between calls for any length of time. A
/// server drops it only if a request stops arriving part-way through or
/// a reply goes unread for ten seconds (`PEER_TIMEOUT`).
#[derive(Debug)]
pub struct CtlClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
}

impl CtlClient {
    /// Connects to a `sv2p-ctld` endpoint (Nagle disabled: the workload is
    /// latency-bound request/reply frames).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(CtlClient {
            reader,
            writer,
            scratch: Vec::new(),
        })
    }

    /// Sends one batch and blocks for its reply.
    pub fn call(&mut self, req: &RequestBatch) -> Result<ReplyBatch, FrameError> {
        encode_request(req, &mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)?;
        self.writer.flush()?;
        if !read_frame(&mut self.reader, &mut self.scratch, MAX_FRAME)? {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )));
        }
        let rep = decode_reply(&self.scratch)?;
        if rep.id != req.id {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply id does not match request id",
            )));
        }
        Ok(rep)
    }
}

/// A running `sv2p-ctld` server: accept loop plus connection handlers.
#[derive(Debug)]
pub struct CtlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl CtlServer {
    /// Binds `addr` and starts serving `state` until [`Self::shutdown`].
    ///
    /// Pass port 0 to bind an ephemeral port; the bound address is
    /// available from [`Self::addr`].
    pub fn spawn(addr: impl ToSocketAddrs, state: Arc<StripedControlPlane>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking accept so the loop can observe the stop flag.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, state, stop_accept);
        });
        Ok(CtlServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// handed to handler threads finish when their client disconnects.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CtlServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<StripedControlPlane>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    // A poisoned connection only loses that client.
                    let _ = serve_connection(stream, &state, PEER_TIMEOUT);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake); the
                // listener itself is still good.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Serves one connection to completion: frames in, batches executed,
/// frames out. Returns when the client closes, on the first error, or when
/// the peer leaves a begun frame or an unread reply waiting for `timeout`
/// ([`CtlServer`] passes `PEER_TIMEOUT`).
pub fn serve_connection(
    stream: TcpStream,
    state: &StripedControlPlane,
    timeout: Duration,
) -> Result<(), FrameError> {
    stream.set_nodelay(true)?;
    // Handler threads block in read; blocking mode is inherited per-stream,
    // not from the nonblocking listener on all platforms, so set it
    // explicitly.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(FrameError::Io)?);
    let mut writer = BufWriter::new(stream);
    let mut in_buf = Vec::new();
    let mut out_buf = Vec::new();
    loop {
        // A timeout before the first byte of a frame only means the client
        // is idle, so wait again; inside `read_frame` it ends the
        // connection.
        match reader.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
        if !read_frame(&mut reader, &mut in_buf, MAX_FRAME)? {
            return Ok(());
        }
        let req = decode_request(&in_buf)?;
        let rep = state.execute_shared(&req);
        encode_reply(&rep, &mut out_buf);
        write_frame(&mut writer, &out_buf)?;
        writer.flush()?;
    }
}

/// Whether a read gave up on its timeout (`WouldBlock` on Unix, `TimedOut`
/// on Windows) or was interrupted, rather than failed.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CtlOp, CtlReply};
    use sv2p_packet::{Pip, Vip};

    #[test]
    fn client_server_round_trip_on_loopback() {
        let state = Arc::new(StripedControlPlane::new(4));
        state.preload((0..32u32).map(|i| (Vip(i), Pip(100 + i))));
        let mut server = CtlServer::spawn("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let mut client = CtlClient::connect(server.addr()).expect("connect");

        let mut req = RequestBatch::new(7);
        req.ops.push(CtlOp::Lookup { vip: Vip(3) });
        req.ops.push(CtlOp::Migrate {
            vip: Vip(3),
            to_pip: Pip(900),
            at_ns: Some(11),
        });
        req.ops.push(CtlOp::Lookup { vip: Vip(3) });
        req.ops.push(CtlOp::Lookup { vip: Vip(77) });
        let rep = client.call(&req).expect("call");
        assert_eq!(rep.id, 7);
        assert_eq!(rep.epoch, 33);
        assert_eq!(
            rep.replies,
            vec![
                CtlReply::Found { pip: Pip(103) },
                CtlReply::Applied {
                    old: Some(Pip(103)),
                    new: Some(Pip(900))
                },
                CtlReply::Found { pip: Pip(900) },
                CtlReply::NotFound,
            ]
        );

        // A second client sees the first client's write.
        let mut client2 = CtlClient::connect(server.addr()).expect("connect2");
        let mut req2 = RequestBatch::new(8);
        req2.ops.push(CtlOp::Lookup { vip: Vip(3) });
        let rep2 = client2.call(&req2).expect("call2");
        assert_eq!(rep2.replies, vec![CtlReply::Found { pip: Pip(900) }]);

        server.shutdown();
    }

    /// A handler with a 100 ms peer timeout, serving the server side of a
    /// loopback connection on its own thread, and the client side.
    fn handler_and_peer() -> (JoinHandle<Result<(), FrameError>>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let state = StripedControlPlane::new(1);
        state.preload([(Vip(1), Pip(10))]);
        let handler = std::thread::spawn(move || {
            serve_connection(stream, &state, Duration::from_millis(100))
        });
        (handler, peer)
    }

    #[test]
    fn a_peer_that_stalls_inside_a_frame_header_loses_its_connection() {
        let (handler, mut peer) = handler_and_peer();
        let start = std::time::Instant::now();
        peer.write_all(&[8, 0]).expect("two bytes of a length");
        while !handler.is_finished() {
            assert!(start.elapsed() < Duration::from_secs(1), "still waiting");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(handler.join().expect("handler").is_err());
    }

    #[test]
    fn a_peer_that_idles_between_frames_is_still_served() {
        let (handler, peer) = handler_and_peer();
        let mut client = CtlClient {
            reader: BufReader::new(peer.try_clone().expect("clone")),
            writer: BufWriter::new(peer),
            scratch: Vec::new(),
        };
        for id in 0..2 {
            std::thread::sleep(Duration::from_millis(300));
            let mut req = RequestBatch::new(id);
            req.ops.push(CtlOp::Lookup { vip: Vip(1) });
            let rep = client.call(&req).expect("served after idling");
            assert_eq!(rep.replies, vec![CtlReply::Found { pip: Pip(10) }]);
        }
        drop(client);
        assert!(handler.join().expect("handler").is_ok(), "a clean close");
    }

    #[test]
    fn server_shutdown_is_idempotent_and_drops_clean() {
        let state = Arc::new(StripedControlPlane::new(1));
        let mut server = CtlServer::spawn("127.0.0.1:0", state).expect("bind");
        server.shutdown();
        server.shutdown();
        // Drop after explicit shutdown must not hang or panic.
    }
}
