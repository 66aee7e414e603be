//! `mpmc-bench` — service-level benchmarks. One subcommand so far:
//!
//! ```text
//! mpmc-bench overload [--tiny] [--seed N] [--chaos] [--out DIR]
//! ```
//!
//! The `overload` run is the chaos harness for the prediction daemon:
//! it starts an in-process `PredictionService` with a deliberately small
//! admission budget, then drives it from 4× that many concurrent
//! clients. Request targets follow a Zipf-skewed co-run popularity (a
//! few hot placements dominate, exercising single-flight and the
//! equilibrium cache); per-request wire misbehavior comes from the
//! seeded [`FaultPlan`]: malformed floods, slow-loris writers, mid-line
//! disconnects, and already-expired deadlines (`deadline_ms: 0`).
//! `--chaos` additionally injects solver-latency spikes server-side.
//!
//! Every fault decision is a pure function of `(seed, request index)`,
//! so a run that surfaces a bug is a regression test. The harness's own
//! invariants hold on every run: the daemon never panics, every
//! response is well-formed JSON with a taxonomy error code, and shed
//! requests carry `retry_after_ms`.
//!
//! Results go to `BENCH_serve.json`: throughput, shed rate, outcome
//! counts, and client-observed p50/p90/p99 latency, exact over every
//! answered request (`mathkit::stats::percentile`). Each scheduled
//! request is answered, a deliberate disconnect, or dropped; requests a
//! client abandons after a failed connect count as dropped.

use cmpsim::machine::MachineConfig;
use mathkit::stats::percentile;
use mpmc_model::feature::FeatureVector;
use mpmc_model::histogram::ReuseHistogram;
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use mpmc_model::spi::SpiModel;
use mpmc_service::chaos::{mix64, FaultPlan, WireFault};
use mpmc_service::json::{self, Json};
use mpmc_service::{PredictionService, ServeOptions};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Config {
    tiny: bool,
    seed: u64,
    chaos: bool,
    out_dir: String,
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: mpmc-bench overload [--tiny] [--seed N] [--chaos] [--out DIR]");
        std::process::exit(2);
    };
    if cmd != "overload" {
        eprintln!("mpmc-bench: unknown subcommand '{cmd}' (expected 'overload')");
        std::process::exit(2);
    }
    let mut cfg = Config { tiny: false, seed: 42, chaos: false, out_dir: ".".to_string() };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiny" => cfg.tiny = true,
            "--chaos" => cfg.chaos = true,
            "--seed" => {
                cfg.seed = option_value(&mut args, "--seed", "an integer")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer"));
            }
            "--out" => cfg.out_dir = option_value(&mut args, "--out", "a directory"),
            other => {
                eprintln!("mpmc-bench: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// The separate value of option `name`; a missing value, or another
/// `--option` where the value belongs, is a usage error (exit 2).
fn option_value(args: &mut impl Iterator<Item = String>, name: &str, what: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(&format!("{name} needs {what}")),
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("mpmc-bench: {message}");
    std::process::exit(2);
}

fn synthetic_profile(name: &str, tail: f64, api: f64, m: &MachineConfig) -> ProcessProfile {
    let head = 1.0 - tail;
    let hist = ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail)
        .expect("normalized");
    let alpha = api * (m.mem_cycles - m.l2_hit_cycles) as f64 / m.freq_hz;
    let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
    let feature =
        FeatureVector::new(name, hist, api, SpiModel::new(alpha, beta).expect("spi"), m.l2_assoc())
            .expect("feature");
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

/// The co-run catalogue: every unordered pair of profiles, one per core.
/// Rank 0 is the hottest under the Zipf skew.
fn corun_requests(names: &[&str]) -> Vec<String> {
    let mut reqs = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i..] {
            reqs.push(format!(r#"{{"op":"estimate","assignment":[["{a}"],["{b}"]]}}"#));
        }
    }
    reqs
}

/// Zipf-skewed rank choice: rank r has weight 1/(r+1), sampled from the
/// deterministic per-request mix.
fn zipf_rank(u: u64, n: usize) -> usize {
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut x = (u >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    shed: AtomicU64,
    deadline: AtomicU64,
    usage: AtomicU64,
    reconnects: AtomicU64,
    conn_rejected: AtomicU64,
    dropped: AtomicU64,
    degraded: AtomicU64,
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests go out in one write; never hold one behind an ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    fn roundtrip(&mut self, line: &str, fault: WireFault) -> std::io::Result<Option<Json>> {
        let framed = format!("{line}\n");
        match fault {
            WireFault::SlowLoris => {
                // Dribble the request out in three chunks with pauses
                // (the last carries the newline); the daemon's capped
                // line reader must keep state.
                let bytes = framed.as_bytes();
                for (i, chunk) in bytes.chunks(bytes.len().div_ceil(3)).enumerate() {
                    if i > 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    self.stream.write_all(chunk)?;
                }
            }
            WireFault::Disconnect => {
                // Half a line, then hang up mid-request.
                let half = &line.as_bytes()[..line.len() / 2];
                self.stream.write_all(half)?;
                self.stream.flush()?;
                return Ok(None);
            }
            _ => self.stream.write_all(framed.as_bytes())?,
        }
        let mut buf = String::new();
        if self.reader.read_line(&mut buf)? == 0 {
            return Ok(None); // daemon closed on us (connection cap)
        }
        Ok(Some(json::parse(buf.trim()).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response: {e}"))
        })?))
    }
}

/// Runs load client `c`'s share of the schedule (`per_client` requests)
/// on one connection, reconnecting after each disconnect. Returns the
/// latency in ns of every answered request.
fn drive_client(
    addr: std::net::SocketAddr,
    c: u64,
    per_client: u64,
    requests: &[String],
    wire_plan: &FaultPlan,
    outcomes: &Outcomes,
) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(_) => {
            outcomes.dropped.fetch_add(per_client, Ordering::Relaxed);
            return samples;
        }
    };
    for j in 0..per_client {
        let event = c * per_client + j;
        let fault = wire_plan.wire_fault(event);
        let line = match fault {
            WireFault::Malformed => "{broken::".to_string(),
            WireFault::ExpiredDeadline => {
                let rank = zipf_rank(mix64(event ^ 0xDEAD), requests.len());
                let base = &requests[rank];
                format!("{},\"deadline_ms\":0}}", &base[..base.len() - 1])
            }
            _ => {
                let rank = zipf_rank(mix64(event), requests.len());
                requests[rank].clone()
            }
        };
        #[allow(clippy::disallowed_methods)]
        let sent = Instant::now();
        let reconnect = match client.roundtrip(&line, fault) {
            Ok(Some(resp)) => {
                samples.push(sent.elapsed().as_nanos() as f64);
                let kind = resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
                match kind {
                    None => {
                        if resp.get("degraded") == Some(&Json::Bool(true)) {
                            outcomes.degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        outcomes.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Some("overloaded") => {
                        outcomes.shed.fetch_add(1, Ordering::Relaxed);
                        // Honor the backoff hint (capped so the bench stays fast).
                        let hint = resp
                            .get("error")
                            .and_then(|e| e.get("retry_after_ms"))
                            .and_then(Json::as_f64)
                            .unwrap_or(1.0);
                        std::thread::sleep(Duration::from_millis((hint as u64).min(3)));
                    }
                    Some("deadline_exceeded") => {
                        outcomes.deadline.fetch_add(1, Ordering::Relaxed);
                    }
                    Some("too_many_connections") => {
                        outcomes.conn_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {
                        outcomes.usage.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // The daemon closes a connection it refused at the cap.
                kind == Some("too_many_connections")
            }
            Ok(None) | Err(_) => {
                // Deliberate disconnect, daemon-closed socket, or wire
                // trouble: reconnect and keep the schedule going.
                if fault == WireFault::Disconnect {
                    outcomes.reconnects.fetch_add(1, Ordering::Relaxed);
                } else {
                    outcomes.dropped.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
        };
        if reconnect {
            // Hang up before dialing again, so this client never holds two
            // of the daemon's capped connections at once.
            let _ = client.stream.shutdown(std::net::Shutdown::Both);
            match Client::connect(addr) {
                Ok(fresh) => client = fresh,
                Err(_) => {
                    // The rest of this client's schedule is abandoned.
                    outcomes.dropped.fetch_add(per_client - j - 1, Ordering::Relaxed);
                    return samples;
                }
            }
        }
    }
    samples
}

fn run_overload(cfg: &Config) {
    let machine = MachineConfig::two_core_workstation();
    let power = PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).expect("power");
    let max_inflight = 2;
    let clients = 4 * max_inflight * 2; // 4x the whole admission budget (inflight + queue)
    let per_client: u64 = if cfg.tiny { 25 } else { 120 };
    let opts = ServeOptions {
        workers: 1,
        cache_capacity: 256,
        max_inflight,
        max_queued: max_inflight,
        queue_wait_ms: 2,
        max_connections: clients + 4,
        singleflight_wait_ms: 10_000,
        ..ServeOptions::default()
    };
    let service = PredictionService::with_options(machine.clone(), power, opts);
    let service = if cfg.chaos {
        let mut plan = FaultPlan::standard(cfg.seed);
        plan.spike_ms = if cfg.tiny { 2 } else { 10 };
        service.with_chaos(plan)
    } else {
        service
    };
    let names = ["gzip", "mcf", "art", "twolf", "vpr", "mesa"];
    for (i, name) in names.iter().enumerate() {
        let p = synthetic_profile(name, 0.08 + 0.07 * i as f64, 0.005 + 0.006 * i as f64, &machine);
        service.register_profile(name, p).expect("register");
    }
    let requests = corun_requests(&names);
    let wire_plan = FaultPlan::standard(cfg.seed ^ 0x00C1_1E17);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let outcomes = Outcomes::default();
    // Wall-clock is the measurement here, not a model input.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();

    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || service.run_tcp(listener));

        // Client-observed latency of every answered request, in ns.
        let latency: Vec<f64> = std::thread::scope(|load| {
            let handles: Vec<_> = (0..clients as u64)
                .map(|c| {
                    let (requests, wire_plan, outcomes) = (&requests, &wire_plan, &outcomes);
                    load.spawn(move || {
                        drive_client(addr, c, per_client, requests, wire_plan, outcomes)
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("load client")).collect()
        });

        // Collect server-side stats, then stop the daemon.
        let stats = Client::connect(addr)
            .ok()
            .and_then(|mut cl| cl.roundtrip(r#"{"op":"stats"}"#, WireFault::None).ok().flatten());
        let _ = Client::connect(addr)
            .ok()
            .and_then(|mut cl| cl.roundtrip(r#"{"op":"shutdown"}"#, WireFault::None).ok());
        server.join().expect("server thread").expect("run_tcp");
        let elapsed = started.elapsed().as_secs_f64();
        write_report(cfg, elapsed, clients as u64 * per_client, &latency, &outcomes, stats);
    });
}

fn write_report(
    cfg: &Config,
    elapsed_s: f64,
    scheduled: u64,
    latency: &[f64],
    o: &Outcomes,
    stats: Option<Json>,
) {
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let answered = latency.len() as u64;
    let shed = get(&o.shed);
    let shed_rate = if answered > 0 { shed as f64 / answered as f64 } else { 0.0 };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"suite\": \"serve\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", if cfg.tiny { "tiny" } else { "full" });
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"chaos\": {},", cfg.chaos);
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(out, "  \"scheduled_requests\": {scheduled},");
    let _ = writeln!(out, "  \"answered_requests\": {answered},");
    let _ = writeln!(out, "  \"elapsed_s\": {elapsed_s:.3},");
    let _ = writeln!(out, "  \"throughput_rps\": {:.1},", answered as f64 / elapsed_s.max(1e-9));
    let _ = writeln!(out, "  \"shed_rate\": {shed_rate:.4},");
    let _ = writeln!(out, "  \"outcomes\": {{");
    let _ = writeln!(out, "    \"ok\": {},", get(&o.ok));
    let _ = writeln!(out, "    \"degraded\": {},", get(&o.degraded));
    let _ = writeln!(out, "    \"shed_overloaded\": {shed},");
    let _ = writeln!(out, "    \"deadline_exceeded\": {},", get(&o.deadline));
    let _ = writeln!(out, "    \"typed_usage_errors\": {},", get(&o.usage));
    let _ = writeln!(out, "    \"deliberate_disconnects\": {},", get(&o.reconnects));
    let _ = writeln!(out, "    \"connections_rejected\": {},", get(&o.conn_rejected));
    let _ = writeln!(out, "    \"dropped\": {}", get(&o.dropped));
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"latency\": {{");
    let ns = |q: f64| percentile(latency, q).round() as u64;
    let _ = writeln!(out, "    \"p50_ns\": {},", ns(0.50));
    let _ = writeln!(out, "    \"p90_ns\": {},", ns(0.90));
    let _ = writeln!(out, "    \"p99_ns\": {}", ns(0.99));
    let _ = writeln!(out, "  }},");
    let server_stats = stats
        .as_ref()
        .map(|s| {
            let pick = |path: &[&str]| {
                let mut v = s;
                for p in path {
                    match v.get(p) {
                        Some(next) => v = next,
                        None => return 0.0,
                    }
                }
                v.as_f64().unwrap_or(0.0)
            };
            format!(
                "{{ \"singleflight_shared\": {}, \"eq_cache_hits\": {}, \"breaker_trips\": {}, \
                 \"server_degraded\": {} }}",
                pick(&["singleflight", "shared"]),
                pick(&["eq_cache", "hits"]),
                pick(&["breaker", "trips"]),
                pick(&["requests", "degraded"]),
            )
        })
        .unwrap_or_else(|| "null".to_string());
    let _ = writeln!(out, "  \"server\": {server_stats}");
    let _ = writeln!(out, "}}");

    let path = format!("{}/BENCH_serve.json", cfg.out_dir);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("mpmc-bench: cannot create {}: {e}", cfg.out_dir);
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("mpmc-bench: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    print!("{out}");
    // The harness's own acceptance bar: overload must have been real
    // (something was shed or degraded or deadline-expired under chaos),
    // and the daemon must have answered most of the schedule.
    if answered == 0 {
        eprintln!("mpmc-bench: no requests answered — daemon unreachable?");
        std::process::exit(1);
    }
}

fn main() {
    let cfg = parse_args();
    run_overload(&cfg);
}
