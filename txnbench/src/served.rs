//! The served path: an in-process `Server` over loopback TCP, one blocking
//! `Client` per thread, and the in-process replay of the recorded request
//! stream through `Session::handle`.

use crate::spans::{set_recording, Recorder, Span, MAX_REQUESTS};
use crate::world::{build_world, set_leaf, Shape, TxnSpec, World, THREADS};
use colock_core::AccessMode;
use colock_nf2::Value;
use colock_server::client::{Client, ClientError};
use colock_server::frame::encode_frame;
use colock_server::session::{AdmissionGate, AdmissionPolicy, CloseReason, Session, SessionTable};
use colock_server::wire::{parse_value, BeginKind, ErrorCode, Request, Response, Role, WireError};
use colock_server::{Server, ServerConfig};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock-wait budget per request, and the drain budget.
const WAIT: Duration = Duration::from_secs(5);

/// A served world: store, manager and journal behind a running server, with
/// one connected client per thread.
pub struct Served {
    /// The store, manager and journal the server fronts.
    pub world: World,
    /// The running server.
    pub server: Server,
    /// Connected clients, one per thread.
    pub clients: Vec<Client>,
}

/// Builds the world, starts the server and connects the clients.
pub fn setup(shape: &Shape) -> Result<Served, String> {
    let world = build_world(shape);
    let cfg = ServerConfig {
        lock_wait: WAIT,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&world.manager), cfg)
        .map_err(|e| format!("server bind failed: {e}"))?;
    let clients = (0..THREADS)
        .map(|t| Client::connect(server.addr(), &format!("bench-{t}"), Role::Engineer))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client connect failed: {e}"))?;
    Ok(Served {
        world,
        server,
        clients,
    })
}

impl Served {
    /// Closes the clients and drains the server; returns the stragglers.
    pub fn shutdown(self) -> usize {
        for mut c in self.clients {
            c.quit();
        }
        self.server.drain(WAIT)
    }
}

/// Why a served attempt failed.
pub fn failure_of(e: &ClientError) -> crate::exec::Failure {
    use crate::exec::Failure;
    match e.code() {
        Some(ErrorCode::Deadlock | ErrorCode::Victim) => Failure::Deadlock,
        Some(ErrorCode::LockTimeout) => Failure::Timeout,
        _ => Failure::Other,
    }
}

/// Client side of one thread.
pub struct ClientExec<'a> {
    client: &'a mut Client,
    /// Spans and counters, when tracing and recording.
    pub rec: Option<Recorder>,
    parked: Option<Recorder>,
    /// Requests sent.
    pub requests: u64,
    /// The requests sent, for the session replay (traced, bounded).
    pub stream: Vec<Request>,
}

impl<'a> ClientExec<'a> {
    /// An executor over one connected client.
    pub fn new(client: &'a mut Client, traced: bool) -> ClientExec<'a> {
        ClientExec {
            client,
            rec: traced.then(Recorder::new),
            parked: None,
            requests: 0,
            stream: Vec::new(),
        }
    }

    /// Records the next transactions (`on`) or runs them as untraced.
    pub fn record(&mut self, on: bool) {
        set_recording(&mut self.rec, &mut self.parked, on);
    }

    /// The recorder of a traced executor, taken out after its run.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.rec.take().or_else(|| self.parked.take())
    }

    /// One request / response round trip; an `ERR` reply becomes an error.
    fn call(&mut self, req: Request) -> Result<Vec<String>, ClientError> {
        let start = Instant::now();
        self.client.send(&req)?;
        let resp = self.client.recv()?;
        let rtt = start.elapsed().as_nanos() as u64;
        self.requests += 1;
        if let Some(rec) = self.rec.as_mut() {
            rec.push(Span::Rtt, rtt);
            rec.time(Span::Codec, || {
                let payload = req.encode();
                black_box(encode_frame(&payload));
                black_box(Request::parse(&payload).ok());
                let reply = resp.encode();
                black_box(encode_frame(&reply));
                black_box(Response::parse(&reply).ok());
            });
            if self.stream.len() < MAX_REQUESTS {
                self.stream.push(req);
            }
        }
        match resp {
            Response::Ok(fields) => Ok(fields),
            Response::Err {
                code,
                message,
                backoff_ms,
            } => Err(ClientError::Server {
                code,
                message,
                backoff_ms,
            }),
            other => Err(ClientError::Wire(WireError::BadCommand(format!(
                "{other:?}"
            )))),
        }
    }

    /// Runs `spec` to an acknowledged commit; aborts on error.
    pub fn run(&mut self, spec: &TxnSpec) -> Result<(), ClientError> {
        let out = self.attempt(spec);
        if out.is_err() {
            let _ = self.call(Request::Abort);
        }
        out
    }

    fn attempt(&mut self, spec: &TxnSpec) -> Result<(), ClientError> {
        match spec {
            TxnSpec::Rmw { leaves } => {
                self.call(Request::Begin {
                    kind: BeginKind::Short,
                })?;
                for leaf in leaves {
                    self.call(Request::Get {
                        target: leaf.target.clone(),
                    })?;
                }
                for leaf in leaves {
                    let value = Value::str(leaf.value.as_str());
                    self.call(Request::Put {
                        target: leaf.target.clone(),
                        value,
                    })?;
                }
            }
            TxnSpec::Snap { target } => {
                self.call(Request::Begin {
                    kind: BeginKind::ReadOnly,
                })?;
                self.call(Request::Get {
                    target: target.clone(),
                })?;
            }
            TxnSpec::Checkout { target, edit } => {
                self.call(Request::Begin {
                    kind: BeginKind::Long,
                })?;
                let fields = self.call(Request::Checkout {
                    target: target.clone(),
                    access: AccessMode::Update,
                })?;
                let text = fields.first().map(String::as_str).unwrap_or("");
                let mut copy = parse_value(text).map_err(ClientError::Wire)?;
                let inner = &edit.target.steps[target.steps.len()..];
                if !set_leaf(&mut copy, inner, Value::str(edit.value.as_str())) {
                    let msg = format!("edit leaf {} not in checked-out copy", edit.target);
                    return Err(ClientError::Wire(WireError::BadCommand(msg)));
                }
                self.call(Request::Checkin {
                    target: target.clone(),
                    value: copy,
                })?;
            }
        }
        self.call(Request::Commit)?;
        Ok(())
    }
}

/// `txns.inflight_peak` from a `STATS` reply.
pub fn inflight_peak(client: &mut Client) -> u64 {
    client
        .stats()
        .ok()
        .and_then(|pairs| pairs.into_iter().find(|(n, _)| n == "txns.inflight_peak"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Replays each thread's request stream through `Session::handle` on a
/// fresh world, with no socket, timing every call. Returns the number of
/// `ERR` replies.
pub fn replay_sessions(
    shape: &Shape,
    streams: &[Vec<Request>],
    rec: &mut Recorder,
) -> Result<u64, String> {
    let world = build_world(shape);
    let table = Arc::new(SessionTable::new(16));
    let gate = AdmissionGate::new(256, AdmissionPolicy::Queue, Duration::from_millis(500));
    let draining = Arc::new(AtomicBool::new(false));
    let mut errors = 0u64;
    for (t, stream) in streams.iter().enumerate() {
        let mut session = Session::open(
            &world.manager,
            Arc::clone(&table),
            Arc::clone(&gate),
            Arc::clone(&draining),
            WAIT,
            format!("replay-{t}"),
        )
        .map_err(|r| format!("session replay refused: {r:?}"))?;
        let hello = Request::Hello {
            name: format!("replay-{t}"),
            version: colock_server::wire::PROTOCOL_VERSION,
            role: Role::Engineer,
        };
        session.handle(hello);
        for req in stream {
            let req = req.clone();
            let reply = rec.time(Span::Session, || session.handle(req));
            errors += reply
                .frames
                .iter()
                .filter(|f| matches!(f, Response::Err { .. }))
                .count() as u64;
        }
        session.close(CloseReason::Quit);
    }
    Ok(errors)
}
