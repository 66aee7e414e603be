//! End-to-end TCP exercise of the prediction daemon: several clients
//! hammer one service concurrently; every client must get byte-identical
//! answers for identical queries (the shared bounded cache must not leak
//! into results), and a `shutdown` request must stop the daemon.

use mpmc_service::chaos::FaultPlan;
use mpmc_service::json::{self, Json};
use mpmc_service::{PredictionService, ServeOptions};

use cmpsim::machine::MachineConfig;
use mpmc_model::feature::FeatureVector;
use mpmc_model::histogram::ReuseHistogram;
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use mpmc_model::spi::SpiModel;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn synthetic_profile(name: &str, tail: f64, api: f64, m: &MachineConfig) -> ProcessProfile {
    let head = 1.0 - tail;
    let hist =
        ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail).unwrap();
    let alpha = api * (m.mem_cycles - m.l2_hit_cycles) as f64 / m.freq_hz;
    let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
    let feature =
        FeatureVector::new(name, hist, api, SpiModel::new(alpha, beta).unwrap(), m.l2_assoc())
            .unwrap();
    ProcessProfile {
        feature,
        l1rpi: 0.35,
        l2rpi: api,
        brpi: 0.2,
        fppi: 0.1,
        processor_alone_w: 60.0,
        idle_processor_w: 44.0,
    }
}

/// Sends `req` and its newline in one write (the socket is `nodelay`, so
/// the client adds no Nagle stall of its own) and parses the reply.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
    stream.write_all(format!("{req}\n").as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    json::parse(line.trim()).unwrap()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn concurrent_tcp_clients_get_identical_answers_and_clean_shutdown() {
    let machine = MachineConfig::two_core_workstation();
    let power = PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap();
    // A deliberately tiny cache bound so the concurrent load churns it.
    let service = PredictionService::new(machine.clone(), power, 2, 8);
    for (name, tail) in [("a", 0.40), ("b", 0.10), ("c", 0.25), ("d", 0.55)] {
        let p = synthetic_profile(name, tail, 0.02, &machine);
        assert!(!service.register_profile(name, p).unwrap());
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || service.run_tcp(listener).unwrap());

        // One reference client collects the expected answer per query.
        let queries: Vec<String> = ["a", "b", "c", "d"]
            .iter()
            .flat_map(|p| {
                ["a", "b", "c", "d"].iter().map(move |q| {
                    format!(r#"{{"id":0,"op":"assign","process":"{p}","current":[["{q}"]]}}"#)
                })
            })
            .collect();
        let expected: Vec<(usize, u64)> = {
            let (mut s, mut r) = connect(addr);
            queries
                .iter()
                .map(|q| {
                    let resp = roundtrip(&mut s, &mut r, q);
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
                    let core = resp.get("best_core").and_then(Json::as_usize).unwrap();
                    let power = resp.get("best_power_w").and_then(Json::as_f64).unwrap();
                    (core, power.to_bits())
                })
                .collect()
        };

        // Several clients replay the full query set concurrently, in
        // different orders, against the same shared (tiny) cache. The
        // inner scope joins them before `expected` drops.
        std::thread::scope(|clients| {
            for offset in 0..4 {
                let queries = &queries;
                let expected = &expected;
                clients.spawn(move || {
                    let (mut s, mut r) = connect(addr);
                    for round in 0..3 {
                        for i in 0..queries.len() {
                            let i = (i * 7 + offset + round) % queries.len();
                            let resp = roundtrip(&mut s, &mut r, &queries[i]);
                            assert_eq!(
                                resp.get("ok"),
                                Some(&Json::Bool(true)),
                                "query {i}: {resp:?}"
                            );
                            let core = resp.get("best_core").and_then(Json::as_usize).unwrap();
                            let power = resp.get("best_power_w").and_then(Json::as_f64).unwrap();
                            assert_eq!(
                                (core, power.to_bits()),
                                expected[i],
                                "query {i} diverged under concurrency"
                            );
                        }
                    }
                });
            }
        });

        // Stats must show the load and a bounded cache.
        let (mut s, mut r) = connect(addr);
        let stats = roundtrip(&mut s, &mut r, r#"{"id":1,"op":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        let eq = stats.get("eq_cache").unwrap();
        let entries = eq.get("entries").and_then(Json::as_f64).unwrap();
        let capacity = eq.get("capacity").and_then(Json::as_f64).unwrap();
        assert!(entries <= capacity, "cache exceeded its bound: {stats:?}");
        let total =
            stats.get("requests").and_then(|r| r.get("total")).and_then(Json::as_f64).unwrap();
        assert!(total >= (16 + 4 * 16 * 3) as f64, "total={total}");

        // Shutdown stops the daemon; the server thread joins cleanly.
        let resp = roundtrip(&mut s, &mut r, r#"{"id":2,"op":"shutdown"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        server.join().unwrap();
        assert!(service.is_shutdown());
    });
}

/// Sequential round trips on one connection must not each wait out a
/// delayed ACK: a response written in two parts stalls ~44 ms per round
/// trip behind Nagle (~8.8 s for 200), one write takes microseconds.
#[test]
fn sequential_round_trips_do_not_stall() {
    let machine = MachineConfig::two_core_workstation();
    let power = PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap();
    let service = PredictionService::new(machine.clone(), power, 1, 64);
    for (name, tail) in [("a", 0.40), ("b", 0.10)] {
        service.register_profile(name, synthetic_profile(name, tail, 0.02, &machine)).unwrap();
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || service.run_tcp(listener).unwrap());
        let (mut s, mut r) = connect(addr);
        let req = r#"{"id":1,"op":"estimate","assignment":[["a"],["b"]]}"#;
        // Warm the cache so the timed loop measures the wire, not a solve.
        let first = roundtrip(&mut s, &mut r, req);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
        // Wall time is what this test measures; no model input reads it.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        for _ in 0..200 {
            let resp = roundtrip(&mut s, &mut r, req);
            assert_eq!(resp.get("power_w"), first.get("power_w"));
        }
        let elapsed = started.elapsed();
        roundtrip(&mut s, &mut r, r#"{"id":2,"op":"shutdown"}"#);
        server.join().unwrap();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "200 round trips took {elapsed:?}: responses are stalling on the wire"
        );
    });
}

/// A client that hangs up mid-request and redials at once must be served,
/// not refused at the connection cap, although its old session still
/// counts until that thread has finished the abandoned request.
#[test]
fn immediate_redial_at_the_connection_cap_is_served() {
    let machine = MachineConfig::two_core_workstation();
    let power = PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap();
    let opts = ServeOptions { workers: 1, max_connections: 1, ..ServeOptions::default() };
    // Every exact solve sleeps 30 ms, so the abandoned request keeps the
    // old session busy well past the accept loop's next poll.
    let mut plan = FaultPlan::quiet(1);
    plan.spike_one_in = 1;
    plan.spike_ms = 30;
    let service = PredictionService::with_options(machine.clone(), power, opts).with_chaos(plan);
    for (name, tail) in [("a", 0.40), ("b", 0.10)] {
        service.register_profile(name, synthetic_profile(name, tail, 0.02, &machine)).unwrap();
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    /// Stops the daemon however the test ends, so a failed assertion
    /// cannot leave the scope waiting on the accept loop forever.
    struct StopOnDrop<'a>(&'a PredictionService);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.request_shutdown();
        }
    }
    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || service.run_tcp(listener).unwrap());
        let _stop = StopOnDrop(service);
        let (mut old, _) = connect(addr);
        old.write_all(b"{\"id\":1,\"op\":\"estimate\",\"assignment\":[[\"a\",\"b\"]]}\n").unwrap();
        old.shutdown(std::net::Shutdown::Both).unwrap();
        let (mut s, mut r) = connect(addr);
        let resp = roundtrip(&mut s, &mut r, r#"{"id":2,"op":"ping"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "redial refused: {resp:?}");
        roundtrip(&mut s, &mut r, r#"{"id":3,"op":"shutdown"}"#);
        server.join().unwrap();
    });
}
