//! Admission control and graceful shutdown, made deterministic with the
//! server's request hook: a hook that parks a chosen request holds it
//! "in flight" for exactly as long as the test wants, with no sleeps or
//! timing races.

use quarry::core::{Quarry, QuarryConfig};
use quarry::query::Query;
use quarry::serve::endpoint::MAX_IN_FLIGHT;
use quarry::serve::{
    Client, ClientError, ErrorKind, Payload, Request, ServeConfig, Server, WireExecStats,
};
use quarry::storage::{Column, DataType, TableSchema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

mod common;
use common::{eventually, Sut};

const PIPELINE: &str = r#"
PIPELINE towns FROM corpus
EXTRACT infobox
RESOLVE BY name
STORE INTO towns KEY name
"#;

/// A latch the hook blocks on: `entered` tells the test a request is now
/// in flight; `release()` lets it proceed.
struct Gate {
    entered: mpsc::Sender<()>,
    released: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> (Arc<Gate>, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(Gate { entered: tx, released: Mutex::new(false), cv: Condvar::new() }), rx)
    }

    fn wait(&self) {
        self.entered.send(()).unwrap();
        let mut open = self.released.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Server over an empty corpus whose hook parks every `Qdl` request on
/// `gate` (other request kinds pass straight through).
fn gated_server(gate: Arc<Gate>) -> Server {
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig {
        request_hook: Some(Arc::new(move |req: &Request| {
            if matches!(req, Request::Qdl(_)) {
                gate.wait();
            }
        })),
        ..ServeConfig::default()
    };
    Server::start(q, "127.0.0.1:0", cfg).unwrap()
}

type Parked = Vec<std::thread::JoinHandle<Result<WireExecStats, ClientError>>>;

/// Take every admission slot of `server`: one `Qdl` parks on the gate
/// inside the writer's critical section and the others wait for the
/// writer, each holding its slot.
fn fill_slots(server: &Server, entered: &mpsc::Receiver<()>) -> Parked {
    let addr = server.local_addr();
    let parked = (0..MAX_IN_FLIGHT)
        .map(|_| std::thread::spawn(move || Client::connect(addr).unwrap().qdl(PIPELINE)))
        .collect();
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    eventually("every admission slot to be taken", || server.in_flight() == MAX_IN_FLIGHT);
    parked
}

/// Wait for every request `fill_slots` parked, each of which completes
/// once the gate is released.
fn drain(parked: Parked) {
    for request in parked {
        request.join().unwrap().expect("a parked request completes");
    }
}

#[test]
fn second_request_is_rejected_overloaded_not_queued() {
    let (gate, entered) = Gate::new();
    let server = gated_server(Arc::clone(&gate));
    let addr = server.local_addr();

    // Parked requests occupy every admission slot…
    let slow = fill_slots(&server, &entered);
    assert_eq!(server.in_flight(), MAX_IN_FLIGHT);

    // …so an independent client is rejected immediately — an explicit
    // Overloaded, not an unbounded queue or a hang.
    let mut c2 = Client::connect(addr).unwrap();
    match c2.ping() {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().counter("server.overloaded"), 1);

    // Releasing the slots restores service for the same client.
    gate.release();
    drain(slow);
    c2.ping().unwrap();
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn rejection_latency_is_bounded_while_a_request_is_stuck() {
    // Overload rejections must not wait on the stuck request: they are
    // answered before execution, off the admission counter alone.
    let (gate, entered) = Gate::new();
    let server = gated_server(Arc::clone(&gate));
    let addr = server.local_addr();

    let slow = fill_slots(&server, &entered);

    let mut rejected = 0;
    let start = std::time::Instant::now();
    for _ in 0..5 {
        let mut c = Client::connect(addr).unwrap();
        if matches!(c.ping(), Err(ClientError::Overloaded)) {
            rejected += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(rejected, 5, "all pings rejected while the slots are held");
    // Generous bound: five connect+reject round trips over loopback while
    // the admitted requests stay parked the whole time.
    assert!(elapsed < Duration::from_secs(5), "rejections took {elapsed:?}");

    gate.release();
    drain(slow);
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let (gate, entered) = Gate::new();
    let server = gated_server(Arc::clone(&gate));
    let addr = server.local_addr();

    // Park a pipeline in flight.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.qdl(PIPELINE)
    });
    entered.recv_timeout(Duration::from_secs(10)).unwrap();

    // Begin shutdown while it is still parked. The Shutdown control frame
    // bypasses admission, so this works even under load.
    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();

    // New work is now refused: a fresh request either cannot connect at
    // all (listener already gone — also a valid refusal) or gets an
    // explicit ShuttingDown.
    if let Ok(mut c) = Client::connect(addr) {
        match c.ping() {
            Err(ClientError::ShuttingDown)
            | Err(ClientError::Io(_))
            | Err(ClientError::Frame(_)) => {}
            other => panic!("expected refusal during drain, got {other:?}"),
        }
    }

    // Release the parked request: the drain must deliver its real
    // response (not cut the connection) before the server finishes.
    gate.release();
    let stats = slow.join().unwrap().expect("drained request must get its response");
    assert_eq!(stats.rows_stored, 0, "empty corpus stores no rows");

    // join() returns only after every session thread exited, with the
    // drained request's effects applied to the façade we get back.
    let quarry = server.join();
    assert!(quarry.db.table_names().iter().any(|t| t.as_str() == "towns"), "drained pipeline ran");
}

/// The MVCC split's first obligation: a read request parked *at its
/// execution point* (snapshot already captured) holds no lock another
/// read needs, so a second concurrent read completes while the first is
/// still in flight. Under the old serialize-through-a-facade-mutex
/// design this deadlocked the second read behind the first.
#[test]
fn a_parked_read_does_not_block_a_second_read() {
    let (gate, entered) = Gate::new();
    let first = Arc::new(AtomicBool::new(true));
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig {
        request_hook: Some(Arc::new({
            let gate = Arc::clone(&gate);
            let first = Arc::clone(&first);
            move |req: &Request| {
                if matches!(req, Request::Query(_)) && first.swap(false, Ordering::SeqCst) {
                    gate.wait();
                }
            }
        })),
        ..ServeConfig::default()
    };
    let server = Server::start(q, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    // Park the first read mid-execution.
    let parked = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query(&Query::scan("ghost"))
    });
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(server.in_flight(), 1);

    // A second read completes while the first stays parked. (The answer
    // is a server-side "no such table" error — which is a *completed*
    // read: the request executed against its snapshot and replied.)
    let mut c2 = Client::connect(addr).unwrap();
    let r2 = c2.query(&Query::scan("ghost"));
    assert!(
        matches!(r2, Err(ClientError::Server { .. })),
        "second read must complete while the first is parked, got {r2:?}"
    );
    assert_eq!(server.in_flight(), 1, "the parked read is still in flight");

    gate.release();
    let r1 = parked.join().unwrap();
    assert!(matches!(r1, Err(ClientError::Server { .. })));
    drop(server.join());
}

/// And the second obligation: a write parked *inside the single-writer
/// critical section* blocks no read — every exploitation mode keeps
/// executing against snapshots while the writer lock is held.
#[test]
fn a_parked_write_does_not_block_reads() {
    let (gate, entered) = Gate::new();
    let server = gated_server(Arc::clone(&gate));
    let addr = server.local_addr();

    // Park a pipeline inside the writer critical section.
    let parked = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.qdl(PIPELINE)
    });
    entered.recv_timeout(Duration::from_secs(10)).unwrap();

    // Reads of every kind complete while the write holds the lock.
    let mut c2 = Client::connect(addr).unwrap();
    c2.stats().expect("stats while a write is parked");
    let (hits, cands) = c2.keyword("anything", 3).expect("keyword while a write is parked");
    assert!(hits.is_empty() && cands.is_empty(), "empty corpus");
    let r = c2.query(&Query::scan("ghost"));
    assert!(matches!(r, Err(ClientError::Server { .. })), "query executed, got {r:?}");

    gate.release();
    parked.join().unwrap().expect("parked pipeline completes after release");
    drop(server.join());
}

#[test]
fn shutdown_is_idempotent_and_in_band() {
    let (gate, _entered) = Gate::new();
    gate.release(); // nothing parked in this test
    for mut sut in [Sut::Server(gated_server(gate)), Sut::router("shutdown-in-band")] {
        let addr = sut.addr();

        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        c.shutdown().unwrap();
        // A second shutdown from the owner's handle is a no-op, not a panic.
        sut.stop();
        sut.join();

        // After join, the port no longer serves the protocol.
        if let Ok(mut c2) = Client::connect(addr) {
            assert!(c2.ping().is_err(), "server still serving after join");
        }
    }
}

/// The router is the same endpoint, so it has the same admission. Its
/// requests hold their slot while they wait for a shard's leg, so with
/// `MAX_IN_FLIGHT` of them behind one parked leg the next is answered
/// `Overloaded` at once instead of queueing, and every slot comes back.
#[test]
fn the_router_answers_overloaded_beyond_max_in_flight() {
    let (gate, entered) = Gate::new();
    let serve = ServeConfig {
        request_hook: Some(Arc::new({
            let gate = Arc::clone(&gate);
            move |req: &Request| {
                if matches!(req, Request::Explain(_)) {
                    gate.wait();
                }
            }
        })),
        ..ServeConfig::default()
    };
    let sut = Sut::router_with("router-overload", serve);
    let Sut::Router(cluster) = &sut else { unreachable!() };
    let (addr, router) = (sut.addr(), cluster.router());

    // One request parks on the shard, holding the leg to it; the router's
    // other slots fill with requests waiting for that leg.
    let parked =
        std::thread::spawn(move || Client::connect(addr).unwrap().explain(&Query::scan("ghost")));
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    let waiting: Vec<_> = (1..MAX_IN_FLIGHT)
        .map(|_| std::thread::spawn(move || Client::connect(addr).unwrap().stats()))
        .collect();
    eventually("every router slot to be taken", || router.in_flight() == MAX_IN_FLIGHT);

    match Client::connect(addr).unwrap().ping() {
        Err(ClientError::Overloaded) => {}
        other => panic!("expected Overloaded from the router, got {other:?}"),
    }
    assert_eq!(router.metrics().snapshot().counter("server.overloaded"), 1);

    gate.release();
    let explained = parked.join().unwrap();
    assert!(matches!(explained, Err(ClientError::Server { .. })), "got {explained:?}");
    for request in waiting {
        request.join().unwrap().expect("a request that waited for the leg completes");
    }
    assert_eq!(router.in_flight(), 0, "every slot came back");
    Client::connect(addr).unwrap().ping().expect("the router admits again");
}

/// A request that panics takes down its own connection and nothing else:
/// its admission slot comes back (the client resends the read once, so
/// two slots were taken) and every other session keeps serving.
#[test]
fn a_panicking_request_gives_its_admission_slot_back() {
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig {
        request_hook: Some(Arc::new(|req: &Request| {
            if matches!(req, Request::Explain(_)) {
                panic!("injected: this request panics");
            }
        })),
        ..ServeConfig::default()
    };
    let server = Server::start(q, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let mut bystander = Client::connect(addr).unwrap();
    bystander.ping().unwrap();

    // Between them these panics take every slot once: a leaked slot
    // would leave the fresh client below with none.
    let mut c = Client::connect(addr).unwrap();
    for _ in 0..MAX_IN_FLIGHT / 2 {
        let died = c.explain(&Query::scan("ghost"));
        assert!(
            matches!(died, Err(ClientError::Io(_) | ClientError::Frame(_))),
            "a panicking request closes its connection, got {died:?}"
        );
        assert_eq!(server.in_flight(), 0, "both attempts gave their slot back");
    }

    Client::connect(addr).unwrap().ping().expect("a fresh client is admitted");
    bystander.ping().expect("the session open during the panic keeps serving");
    // join still returns the façade once every thread has exited.
    drop(server.join());
}

/// One request of every variant; `Shutdown` last, because it ends the
/// server it is sent to.
fn one_of_each() -> Vec<Request> {
    let schema =
        TableSchema::new("t", vec![Column::new("id", DataType::Int)], &["id"], &[]).unwrap();
    vec![
        Request::Ping,
        Request::Query(Query::scan("ghost")),
        Request::KeywordSearch { query: "anything".into(), k: 3 },
        Request::Explain(Query::scan("ghost")),
        Request::Stats,
        Request::Qdl(PIPELINE.into()),
        Request::Checkpoint,
        Request::CreateTable(schema),
        Request::CreateIndex { table: "t".into(), column: "id".into() },
        Request::InsertRows { table: "t".into(), rows: vec![vec![Value::Int(1)]] },
        Request::DeleteRows { table: "t".into(), keys: vec![vec![Value::Int(1)]] },
        Request::Shutdown,
    ]
}

/// The read-only refusal and the writer lock are one decision: a replica
/// refuses a request exactly when a primary would take the writer for it.
#[test]
fn read_only_refuses_exactly_the_requests_that_take_the_writer() {
    // Refused: a read-only server answers `ReadOnly` to the writes only.
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig { read_only: true, ..ServeConfig::default() };
    let replica = Server::start(q, "127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(replica.local_addr()).unwrap();
    for req in one_of_each() {
        let refused = matches!(
            c.request(&req).unwrap().payload,
            Payload::Error { kind: ErrorKind::ReadOnly, .. }
        );
        assert_eq!(refused, req.is_write(), "read-only refusal of {req:?}");
    }
    assert_eq!(replica.metrics().snapshot().counter("server.read_only_rejections"), 6);
    drop(replica.join());

    // The refusal comes before admission: a replica with no slot to give
    // — reads parked at their snapshot hold every one — still answers
    // `ReadOnly`, untimed, and counts no request error.
    let (gate, entered) = Gate::new();
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig {
        read_only: true,
        request_hook: Some(Arc::new({
            let gate = Arc::clone(&gate);
            move |req: &Request| {
                if matches!(req, Request::Query(_)) {
                    gate.wait();
                }
            }
        })),
        ..ServeConfig::default()
    };
    let replica = Server::start(q, "127.0.0.1:0", cfg).unwrap();
    let addr = replica.local_addr();
    let parked: Vec<_> = (0..MAX_IN_FLIGHT)
        .map(|_| {
            std::thread::spawn(move || Client::connect(addr).unwrap().query(&Query::scan("ghost")))
        })
        .collect();
    for _ in 0..MAX_IN_FLIGHT {
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    let resp = c.request(&Request::Checkpoint).unwrap();
    assert!(matches!(resp.payload, Payload::Error { kind: ErrorKind::ReadOnly, .. }), "{resp:?}");
    assert_eq!((resp.server_micros, resp.lsn), (0, 0));
    assert_eq!(c.request(&Request::Ping).unwrap().payload, Payload::Overloaded);
    let counters = replica.metrics().snapshot();
    assert_eq!(counters.counter("server.overloaded"), 1);
    assert_eq!(counters.counter("server.request_errors"), 0);
    gate.release();
    for read in parked {
        let answered = read.join().unwrap();
        assert!(matches!(answered, Err(ClientError::Server { .. })), "got {answered:?}");
    }
    assert_eq!(replica.in_flight(), 0);
    drop(replica.join());

    // Takes the writer: while one write is parked inside the writer's
    // critical section, a write gets no reply and anything else does.
    let (gate, entered) = Gate::new();
    let first = Arc::new(AtomicBool::new(true));
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    let cfg = ServeConfig {
        request_hook: Some(Arc::new({
            let gate = Arc::clone(&gate);
            move |req: &Request| {
                if matches!(req, Request::Qdl(_)) && first.swap(false, Ordering::SeqCst) {
                    gate.wait();
                }
            }
        })),
        ..ServeConfig::default()
    };
    let primary = Server::start(q, "127.0.0.1:0", cfg).unwrap();
    let addr = primary.local_addr();
    let parked = std::thread::spawn(move || Client::connect(addr).unwrap().qdl(PIPELINE));
    entered.recv_timeout(Duration::from_secs(10)).unwrap();

    for req in one_of_each() {
        // Long enough for a request that can reply to have replied.
        let patience = if req.is_write() { 150 } else { 10_000 };
        let mut c = Client::connect_with(addr, Duration::from_millis(patience)).unwrap();
        let replied = c.request(&req).is_ok();
        assert_eq!(replied, !req.is_write(), "reply to {req:?} while the writer is held");
    }
    gate.release();
    parked.join().unwrap().expect("parked pipeline completes after release");
    drop(primary.join());
}
