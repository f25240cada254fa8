//! The stage model: the same bytes over loopback TCP through the front
//! door's thread topology — a session thread reading requests and handing
//! each reply through a bounded queue to a writer thread — where each
//! thread spends exactly each request's replayed stage times (busy)
//! instead of running the codecs and the service. Its round trip is what the stages
//! predict once sockets, thread hand-offs, the write queue and two
//! connections sharing the CPUs are added, measured independently of the
//! real run, so "stages + transport = round trip" is a check and not an
//! identity.

use crate::stack::micros_since;
use serve::net::{ListenAddr, NetConfig};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// One model request: its bytes each way and the busy time each thread
/// spends on it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub request_len: usize,
    pub response_len: usize,
    /// Client thread, before the write (request encode).
    pub client_before: Duration,
    /// Session thread: request decode, handle, response encode.
    pub server: Duration,
    /// Client thread, after the read (response decode).
    pub client_after: Duration,
}

fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Model connections run side by side, one per request sequence, as the
/// workload's connections do.
pub fn concurrent(connections: &[Vec<Shape>], samples: usize) -> Result<Vec<Vec<f64>>, String> {
    std::thread::scope(|scope| {
        let runs: Vec<_> = connections
            .iter()
            .map(|shapes| scope.spawn(move || round_trips(shapes, samples)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().map_err(|_| "echo client panicked".to_string())?)
            .collect()
    })
}

/// Closed-loop model round trips, in microseconds: `samples` requests
/// cycling through `shapes`. Client and server walk the sequence in step,
/// so each side knows the next request's lengths and work.
fn round_trips(shapes: &[Shape], samples: usize) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("echo transport: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    // The per-connection write queue depth the front door runs with.
    let queue = NetConfig::new(ListenAddr::Tcp(addr)).conn_queue;
    let server_shapes = shapes.to_vec();
    let server = thread::spawn(move || -> std::io::Result<()> {
        let (stream, _) = listener.accept()?;
        let mut writer_stream = stream.try_clone()?;
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(queue);
        let writer = thread::spawn(move || {
            while let Ok(bytes) = rx.recv() {
                if writer_stream
                    .write_all(&bytes)
                    .and_then(|_| writer_stream.flush())
                    .is_err()
                {
                    return;
                }
            }
        });
        let mut reader = BufReader::new(stream);
        let mut request = Vec::new();
        for shape in server_shapes.iter().cycle() {
            request.resize(shape.request_len, 0);
            if reader.read_exact(&mut request).is_err() {
                break;
            }
            spin(shape.server);
            if tx.send(vec![0x5A; shape.response_len]).is_err() {
                break;
            }
        }
        drop(tx);
        let _ = writer.join();
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut response = Vec::new();
    let mut out = Vec::with_capacity(samples);
    for shape in shapes.iter().cycle().take(samples) {
        let start = Instant::now();
        spin(shape.client_before);
        stream
            .write_all(&vec![0xA5; shape.request_len])
            .map_err(io)?;
        response.resize(shape.response_len, 0);
        reader.read_exact(&mut response).map_err(io)?;
        spin(shape.client_after);
        out.push(micros_since(start));
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    drop(reader);
    server
        .join()
        .map_err(|_| "echo server panicked".to_string())?
        .map_err(io)?;
    Ok(out)
}
