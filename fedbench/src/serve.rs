//! `serve_2conn`: decision serving to a closed loop of `nproc` (2)
//! connections with no think time — FL aggregators that each wait for
//! their decision. One op is one served decision.
//!
//! The client side is built from the public FSV1 protocol functions
//! (`encode_json`, `write_frame`, `read_frame`, `decode_json`) so JSON
//! work and the round trip get spans of their own. Every served decision
//! must equal `ControllerSnapshot::decide_rows` on the same row, bit for
//! bit; an error response or a shed counts as a failed op.

use crate::measure::{
    bracket, cost_vs_maxfreq, derive_seed, measure_ops, median, peak_rss_mib, reset_peak_rss,
    warm_up, Ops, Phase, PhasePlan, SetupTimes, Spinners,
};
use crate::spans::{Analysis, Span, Tracer};
use crate::{Metric, Outcome, RunArgs, OUT_DIR};
use fl_bench::Scenario;
use fl_ctrl::{train_drl, ControllerSnapshot};
use fl_rl::snapshot::CheckpointStore;
use fl_serve::protocol::{decode_json, encode_json, read_frame, write_frame, FrameRead};
use fl_serve::{DecisionServer, ServeClient, ServeOptions, ServeStats, WireRequest, WireResponse};
use fl_sim::FlSystem;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Tail percentile: a run has at least `MIN_OPS` decisions, so p99 has at
/// least ten samples beyond it.
pub const TAIL_Q: f64 = 0.99;
const MIN_OPS: usize = 2_000;
/// Untimed decisions per connection before the measured phase.
const WARMUP_OPS: usize = 200;
const SETUP_REPS: usize = 41;
/// Most connections (and load-generator threads) the benchmark opens.
const MAX_CONNECTIONS: usize = 2;
/// Training budget of the served N=3 controller (10 PPO updates).
const TRAIN_EPISODES: usize = 50;
/// Observation rows sampled from the seed's traces.
const POOL_ROWS: usize = 512;
/// Longest a client waits for one response.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The served controller, the rows clients send, and what each row's
/// decision must be.
struct Prepared {
    dir: PathBuf,
    snap: ControllerSnapshot,
    sys: FlSystem,
    times: Vec<f64>,
    rows: Vec<Vec<f64>>,
    expected: Vec<Vec<f64>>,
}

/// Untimed preparation: train a testbed controller from the seed, save it
/// as the only snapshot of a fresh store, sample observation rows.
fn prepare(seed: u64) -> Result<Prepared, String> {
    let mut sc = Scenario::testbed();
    sc.seed = derive_seed(seed, 0x5E7E);
    let sys = sc.build();
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed ^ 0xD51);
    let out =
        train_drl(&sys, &sc.train_config(TRAIN_EPISODES), &mut rng).map_err(|e| e.to_string())?;
    let snap = ControllerSnapshot::from_system(out.controller, &sys).map_err(|e| e.to_string())?;
    let dir = Path::new(OUT_DIR).join(format!("serve-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).map_err(|e| e.to_string())?;
    snap.save(&store).map_err(|e| e.to_string())?;

    let mut row_rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0x0B5));
    let (slot_h, h) = (snap.controller.slot_h, snap.controller.history_len);
    let times: Vec<f64> = (0..POOL_ROWS)
        .map(|_| row_rng.gen_range(60.0..3360.0))
        .collect();
    let rows = times
        .iter()
        .map(|&t| {
            sys.observe_bandwidth_state(t, slot_h, h)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let expected = rows
        .iter()
        .map(|r| {
            snap.decide_rows(std::slice::from_ref(r))
                .map_err(|e| e.to_string())
                .and_then(|mut d| d.pop().ok_or_else(|| "empty decision".to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        dir,
        snap,
        sys,
        times,
        rows,
        expected,
    })
}

/// The set-up a user pays before the first decision: start the server on
/// the store (it loads the snapshot) and connect the clients. The
/// connections come first in the result so they close before the server
/// stops; a read timeout turns a stalled server into failed ops instead of
/// a hung run.
fn setup(dir: &Path, connections: usize) -> Result<(Vec<TcpStream>, DecisionServer), String> {
    let server = DecisionServer::start(dir, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| e.to_string())?;
    let conns = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((conns, server))
}

/// One decide round trip on a raw FSV1 connection.
fn decide(stream: &mut TcpStream, row: &[f64], tr: &mut Tracer) -> Result<Vec<f64>, String> {
    let request = WireRequest::decide(row.to_vec());
    let bytes = tr
        .wrap("fl-serve.encode_json", || encode_json(&request))
        .map_err(|e| e.to_string())?;
    let frame = tr.wrap("fl-serve.roundtrip", || -> Result<Vec<u8>, String> {
        write_frame(stream, &bytes).map_err(|e| e.to_string())?;
        match read_frame(stream) {
            Ok(FrameRead::Frame(payload)) => Ok(payload),
            Ok(other) => Err(format!("connection ended: {other:?}")),
            Err(e) => Err(format!("bad response frame: {e:?}")),
        }
    })?;
    let response: WireResponse = tr
        .wrap("fl-serve.decode_json", || decode_json(&frame))
        .map_err(|e| e.to_string())?;
    if !response.ok {
        let (code, msg) = response.error_parts();
        return Err(format!("{code}: {msg}"));
    }
    response
        .freqs
        .ok_or_else(|| "decide response without freqs".to_string())
}

/// What one connection's load generator saw.
struct ConnResult {
    ops: Ops,
    mismatched: usize,
    spans: Vec<Span>,
}

/// Drives every connection in a closed loop until `seconds` have passed
/// and at least [`MIN_OPS`] decisions were attempted.
fn drive(
    prep: &Arc<Prepared>,
    nproc: usize,
    conns: Vec<TcpStream>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Phase, Vec<ConnResult>), String> {
    let n = conns.len();
    let plan = PhasePlan {
        warmup_ops: WARMUP_OPS,
        seconds,
        min_ops: MIN_OPS.div_ceil(n),
        trace,
    };
    let start_line = Arc::new(Barrier::new(n + 1));
    let epoch = Instant::now();
    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(c, mut stream)| {
            let prep = Arc::clone(prep);
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || -> Result<ConnResult, String> {
                let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0xC0 + c as u64));
                let mut tr = Tracer::new(false, epoch, c as u32);
                let mut mismatched = 0;
                // One decision; `false` when it failed or differs from
                // `decide_rows` (counted as a failed op).
                let mut op = |index: usize, traced: bool| {
                    let j = rng.gen_range(0..POOL_ROWS);
                    tr.set_on(traced);
                    tr.set_trace(((c as u64) << 40) | index as u64);
                    let root = tr.begin("serve.op", false);
                    let served = decide(&mut stream, &prep.rows[j], &mut tr);
                    tr.end(root);
                    let Ok(freqs) = served else {
                        return Ok(false);
                    };
                    let same = freqs.len() == prep.expected[j].len()
                        && freqs
                            .iter()
                            .zip(&prep.expected[j])
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    mismatched += usize::from(!same);
                    Ok(same)
                };
                warm_up(plan, &mut op)?;
                start_line.wait();
                let ops = measure_ops(plan, &mut op, || Ok(()))?;
                Ok(ConnResult {
                    ops,
                    mismatched,
                    spans: tr.into_spans(),
                })
            })
        })
        .collect();
    let spinners = Spinners::start(nproc);
    start_line.wait();
    let (results, mut clocks) = bracket(|| {
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load-generator thread panicked".to_string())?
            })
            .collect::<Result<Vec<ConnResult>, String>>()
    })?;
    clocks.cpu_s = (clocks.cpu_s - spinners.stop()? as f64 * 1e-9).max(0.0);
    let phase = Phase::new(results.iter().map(|r| r.ops.clone()).collect(), clocks);
    Ok((phase, results))
}

fn check_results(results: &[ConnResult], failures: &mut Vec<String>) {
    let mismatched: usize = results.iter().map(|r| r.mismatched).sum();
    if mismatched > 0 {
        failures.push(format!(
            "serve: {mismatched} served decisions differ from ControllerSnapshot::decide_rows"
        ));
    }
}

/// `Σ DRL cost / Σ MaxFreq cost` of one FL iteration from each pool row's
/// start time. The DRL frequencies are `decide_rows`' decisions, which the
/// run checked every served decision against.
fn serve_cost_vs_maxfreq(prep: &Prepared) -> Result<f64, String> {
    let lambda = prep.sys.config().lambda;
    let drl = prep
        .times
        .iter()
        .zip(&prep.expected)
        .map(|(&t, freqs)| {
            let report = prep
                .sys
                .run_iteration(t, freqs)
                .map_err(|e| e.to_string())?;
            Ok((t, report.cost(lambda)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    cost_vs_maxfreq(&prep.sys, drl)
}

/// Server stage figures from the `stats` op.
fn server_stats(server: &DecisionServer) -> Result<ServeStats, String> {
    let mut client = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client.stats().map_err(|e| e.to_string())
}

/// In-process `decide_rows` latency on batches of `batch` pool rows, µs.
fn decide_rows_us(prep: &Prepared, batch: usize) -> Result<f64, String> {
    let mut times = Vec::new();
    for chunk in prep.rows.chunks_exact(batch) {
        let t0 = Instant::now();
        let out = prep.snap.decide_rows(chunk).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        if out.len() != batch {
            return Err(format!(
                "decide_rows returned {} of {batch} rows",
                out.len()
            ));
        }
    }
    Ok(median(&times))
}

pub fn run(args: &RunArgs, nproc: usize) -> Result<Outcome, String> {
    let connections = nproc.clamp(1, MAX_CONNECTIONS);
    let mut out = Outcome::new(TAIL_Q, connections, connections);
    let prep = Arc::new(prepare(args.seed)?);
    let result = run_prepared(args, &prep, nproc, &mut out);
    let _ = std::fs::remove_dir_all(&prep.dir);
    result.map(|()| out)
}

fn run_prepared(
    args: &RunArgs,
    prep: &Arc<Prepared>,
    nproc: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let connections = out.connections;
    if !args.trace {
        // Back to back, with the spinners: the server's threads stay
        // steady only on vCPUs that do not halt.
        let spinners = Spinners::start(nproc);
        let mut setups = SetupTimes::default();
        let mut live = None;
        for _ in 0..SETUP_REPS {
            live = Some(setups.time(|| setup(&prep.dir, connections))?);
        }
        spinners.stop()?;
        let (conns, server) = live.ok_or("no set-up ran")?;
        reset_peak_rss()?;
        let (phase, results) = drive(prep, nproc, conns, args.seed, args.seconds, false)?;
        let rss = peak_rss_mib()?;
        server.shutdown();
        check_results(&results, &mut out.failures);
        out.fact("setup_reps", setups.reps() as f64);
        let ops = phase.latencies_ms.len();
        let cost = serve_cost_vs_maxfreq(prep)?;
        out.end_to_end(setups.median_s(), &phase, (ops, phase.clocks), rss, cost);
        return Ok(());
    }

    let (conns, server) = setup(&prep.dir, connections)?;
    let (phase, results) = drive(prep, nproc, conns, args.seed, args.seconds, true)?;
    let stats = server_stats(&server)?;
    server.shutdown();
    check_results(&results, &mut out.failures);
    let spans = results.into_iter().map(|r| r.spans).collect();
    out.per_layer(spans, &phase, layer_metrics);

    let stages = stats.stages.ok_or("server stats carry no stage summary")?;
    let ms = |us: f64| us * 1e-3;
    out.metrics.extend([
        Metric::new(
            "fl-serve.queue_wait.ms_p50",
            ms(stages.queue_wait_us.p50_us),
            "ms",
        ),
        Metric::new(
            "fl-serve.batch_linger.ms_p50",
            ms(stages.batch_linger_us.p50_us),
            "ms",
        ),
        Metric::new(
            "fl-serve.inference.ms_p50",
            ms(stages.inference_us.p50_us),
            "ms",
        ),
        Metric::new("fl-serve.write.ms_p50", ms(stages.write_us.p50_us), "ms"),
        Metric::new(
            "fl-serve.batch_size.mean",
            stats.decisions as f64 / stats.batches.max(1) as f64,
            "rows",
        ),
        Metric::new(
            "fl-ctrl.decide_rows.b1.us_p50",
            decide_rows_us(prep, 1)?,
            "us",
        ),
        Metric::new(
            "fl-ctrl.decide_rows.b2.us_p50",
            decide_rows_us(prep, 2)?,
            "us",
        ),
    ]);
    Ok(())
}

fn layer_metrics(a: &Analysis) -> Vec<Metric> {
    vec![
        Metric::new(
            "fl-serve.encode_json.us_p50",
            a.layer("fl-serve.encode_json").p50_ms() * 1e3,
            "us",
        ),
        Metric::new(
            "fl-serve.decode_json.us_p50",
            a.layer("fl-serve.decode_json").p50_ms() * 1e3,
            "us",
        ),
        Metric::new(
            "fl-serve.roundtrip.ms_p50",
            a.layer("fl-serve.roundtrip").p50_ms(),
            "ms",
        ),
        Metric::new(
            "fl-serve.roundtrip.share",
            a.share("fl-serve.roundtrip"),
            "ratio",
        ),
    ]
}
