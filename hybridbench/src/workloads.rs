//! The four workloads: set-up, the measured operation, and the output
//! checks of each.
//!
//! Every input is generated from `--seed` (device-image filler, corpus
//! content, request mix); the trained model is the same for every seed.

use crate::ledger::{self, Ledger, TracedDyn, TracedFeatures};
use corpus::device::DeviceBuild;
use corpus::vulndb::VulnDb;
use corpus::{CorpusStream, StreamConfig};
use fwbin::format::Binary;
use neural::net::TrainConfig;
use patchecko_core::detector::{self, Detector, DetectorConfig};
use patchecko_core::differential::DifferentialConfig;
use patchecko_core::dynsource::DynProfileSource;
use patchecko_core::features::StaticFeatures;
use patchecko_core::pipeline::{Basis, DirectExtraction, Patchecko, PipelineConfig};
use patchecko_core::report::{AuditReport, AuditStatus};
use patchecko_core::retrieval::{Retrieval, DEFAULT_TOP_K};
use patchecko_scand::{ScanClient, ScanServer, ScanSummary, ServerConfig};
use patchecko_scanhub::{CacheStats, ScanHub};
use scope::TelemetrySnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Device-image scale, the default of `patchecko build-image`: 16
/// libraries, 783 functions, all 25 catalog CVEs.
const IMAGE_SCALE: f64 = 0.25;
/// The paper's one Table VIII miss: a one-constant patch no channel sees.
/// An audit may get these verdicts wrong and still be correct.
const KNOWN_MISSES: [&str; 1] = ["CVE-2018-9470"];
/// Generated functions in the streamed corpus.
const STREAM_FUNCTIONS: usize = 4096;
/// Units the streaming scan may hold at once.
const WORKING_SET: usize = 64;
/// Service shape: one closed-loop client per tenant and as many daemon
/// executors, so a request's latency is its own service time rather than
/// a queue that amplifies machine noise; plus the images the requests
/// spread over. The shape is an assumption, not taken from observed
/// traffic.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const TENANTS: [&str; 2] = ["acme", "globex"];
const SERVICE_IMAGES: usize = 2;

/// The workloads, by command-line name.
pub const NAMES: [&str; 4] = ["audit_cold", "audit_warm", "stream_topk", "service"];

/// What one measured region produced.
#[derive(Default)]
pub struct Samples {
    /// Wall time of each operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Each operation's kind (which of the workload's distinct requests it
    /// was; audits and stream passes have one kind) and its wall time over
    /// the mean time of the calibration workload run right before and
    /// right after it on the same thread.
    pub calibrated: Vec<(usize, f64)>,
    /// The latest calibration time, milliseconds.
    last_calibration_ms: Option<f64>,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The first failed check, for the log.
    pub first_error: Option<String>,
}

impl Samples {
    /// Record one operation of kind `kind`, then time the calibration
    /// workload.
    fn record(&mut self, kind: usize, ms: f64, result: Result<(), String>) {
        let after = calibration_ms();
        let before = self.last_calibration_ms.replace(after).unwrap_or(after);
        self.calibrated.push((kind, ms / ((before + after) / 2.0)));
        self.latencies_ms.push(ms);
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Milliseconds one run of the calibration workload takes now.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    std::hint::black_box(calibration_workload());
    started.elapsed().as_secs_f64() * 1e3
}

/// A fixed CPU workload of the standard library alone (about 8 ms):
/// sort 200k pseudo-random words, index a quarter of them in a hash map,
/// then probe it with a third.
///
/// A shared machine's speed swings by up to 1.6× in phases that can
/// outlast a run, as neighbours come and go. Timed right before and right
/// after an operation, this workload sees the same phase, so the ratio of
/// the two holds steady where either time alone does not; nothing in it
/// depends on the program under test. It runs on one thread even when the
/// operation fans out to two: across runs of the audits and the stream
/// pass on a 2-vCPU virtual machine, the ratio to it spread 4–6%, against
/// 6–11% for the same workload run on two threads at once.
fn calibration_workload() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut words: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let index: std::collections::HashMap<u64, u64> = words
        .iter()
        .step_by(4)
        .zip(0..)
        .map(|(&w, i)| (w, i))
        .collect();
    words.iter().step_by(3).filter_map(|w| index.get(w)).sum()
}

/// One workload, set up and ready to measure.
pub trait Workload {
    /// Checks that must pass before anything is timed.
    fn gate(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Cache hits and misses the operations have caused so far.
    fn cache(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Run operations until `until` (at least one), checking each output.
    fn measure(&mut self, until: Instant, ledger: Option<&Arc<Ledger>>) -> Samples;

    /// Per-operation layer figures of a traced region.
    fn layers(
        &self,
        ledger: &Ledger,
        snap: &TelemetrySnapshot,
        samples: &Samples,
    ) -> BTreeMap<&'static str, f64> {
        let ops = samples.latencies_ms.len() as u64;
        ledger::layer_metrics(ledger, snap, ops, samples.latencies_ms.iter().sum())
    }

    /// Stop whatever the workload started.
    fn finish(self: Box<Self>) {}
}

/// Run `op` back to back until `until` (at least once), calling
/// `prepare` untimed before each.
fn serial<W>(
    work: &mut W,
    until: Instant,
    ledger: Option<&Arc<Ledger>>,
    prepare: fn(&mut W),
    op: fn(&mut W, Option<&Arc<Ledger>>) -> Result<(), String>,
) -> Samples {
    let mut samples = Samples::default();
    while samples.latencies_ms.is_empty() || Instant::now() < until {
        prepare(work);
        let t = Instant::now();
        let result = op(work, ledger);
        samples.record(0, t.elapsed().as_secs_f64() * 1e3, result);
    }
    samples
}

/// Set up workload `name` from `seed` and the serialized model.
pub fn setup(name: &str, seed: u64, model: &str) -> Box<dyn Workload> {
    match name {
        "audit_cold" => Box::new(Audit::new(seed, model, false)),
        "audit_warm" => Box::new(Audit::new(seed, model, true)),
        "stream_topk" => Box::new(Stream::new(seed, model)),
        "service" => Box::new(Service::new(seed, model)),
        other => panic!("unknown workload {other}"),
    }
}

/// Train the detector every workload uses and serialize it, as
/// `patchecko train` does. Deterministic: the same model on every run.
pub fn train_model() -> String {
    let ds = corpus::build_dataset1(&corpus::dataset1::Dataset1Config {
        num_libraries: 10,
        min_functions: 8,
        max_functions: 12,
        seed: 1,
        include_catalog: true,
    });
    let cfg = DetectorConfig {
        pairs_per_function: 6,
        train: TrainConfig {
            epochs: 10,
            batch: 256,
            lr: 1e-3,
            seed: 7,
            ..Default::default()
        },
        ..DetectorConfig::default()
    };
    serde_json::to_string(&detector::train(&ds, &cfg).0).expect("serialize model")
}

fn load_model(model: &str) -> Detector {
    serde_json::from_str(model).expect("parse model")
}

/// SplitMix64: derives independent input seeds from `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An Android Things image whose filler functions come from `seed`.
fn device(seed: u64) -> DeviceBuild {
    let mut spec = corpus::android_things_spec();
    spec.seed = seed;
    corpus::build_device(&spec, &corpus::full_catalog(), IMAGE_SCALE)
}

fn hits_misses(c: &CacheStats) -> (u64, u64) {
    (
        c.hits + c.dyn_hits + c.sig_hits,
        c.misses + c.dyn_misses + c.sig_misses,
    )
}

/// An audit is correct when every CVE is located at its planted function
/// and every verdict matches the image's ground truth, save the known miss.
fn check_audit(device: &DeviceBuild, db: &VulnDb, report: &AuditReport) -> Result<(), String> {
    if report.findings.len() != db.entries.len() {
        return Err(format!(
            "{} findings for {} CVEs",
            report.findings.len(),
            db.entries.len()
        ));
    }
    for f in &report.findings {
        let truth = device
            .truth_for(&f.cve)
            .ok_or_else(|| format!("{}: no ground truth", f.cve))?;
        let want_at = format!("{}:{}", truth.library, truth.function_index);
        if f.located.as_deref() != Some(want_at.as_str()) {
            return Err(format!(
                "{}: located {:?}, planted at {want_at}",
                f.cve, f.located
            ));
        }
        let want = if truth.patched {
            AuditStatus::Patched
        } else {
            AuditStatus::Vulnerable
        };
        if f.status != want && !KNOWN_MISSES.contains(&f.cve.as_str()) {
            return Err(format!("{}: verdict {:?}, truth {want:?}", f.cve, f.status));
        }
    }
    Ok(())
}

/// A scan whose basis is the version the image carries is correct when its
/// image-wide best match is the CVE's planted function. A scan on the
/// other basis has no such claim: its best match can land elsewhere (the
/// paper's CVE-2017-13209 vulnerable-basis miss is one), which is why an
/// audit scans both bases.
fn check_scan(device: &DeviceBuild, req: &Request, summary: &ScanSummary) -> Result<(), String> {
    let truth = device
        .truth_for(&req.cve)
        .ok_or_else(|| format!("{}: no ground truth", req.cve))?;
    match &summary.best {
        _ if truth.patched != (req.basis == Basis::Patched) => Ok(()),
        Some(m) if m.library == truth.library && m.function_index == truth.function_index => Ok(()),
        best => Err(format!(
            "{} ({:?} basis): best match {:?}, planted at {}:{}",
            req.cve,
            req.basis,
            best.as_ref()
                .map(|m| format!("{}:{}", m.library, m.function_index)),
            truth.library,
            truth.function_index
        )),
    }
}

/// Whole-image audits: every CVE of the database, both search bases,
/// static scan → dynamic stage → differential verdict. Cold audits each
/// get a fresh hub; warm audits reuse one hub warmed during set-up.
struct Audit {
    detector: Detector,
    db: VulnDb,
    device: DeviceBuild,
    diff: DifferentialConfig,
    warm: Option<ScanHub>,
    /// The first report, serialized; every later report must equal it.
    expected: Option<String>,
    cache: (u64, u64),
}

impl Audit {
    fn new(seed: u64, model: &str, warm: bool) -> Audit {
        let mut audit = Audit {
            detector: load_model(model),
            db: corpus::build_vulndb(0, 1),
            device: device(mix(seed, 1)),
            diff: DifferentialConfig::default(),
            warm: None,
            expected: None,
            cache: (0, 0),
        };
        if warm {
            let hub = ScanHub::new(audit.analyzer());
            let report = hub
                .audit(&audit.db, &audit.device.image, &audit.diff)
                .expect("warm-up audit");
            audit.expected = Some(serde_json::to_string(&report).expect("serialize report"));
            audit.warm = Some(hub);
        }
        audit
    }

    fn analyzer(&self) -> Patchecko {
        Patchecko::new(self.detector.clone(), PipelineConfig::default())
    }

    /// One audit, its report checked.
    fn op(&mut self, ledger: Option<&Arc<Ledger>>) -> Result<(), String> {
        let fresh;
        let hub = match &self.warm {
            Some(hub) => hub,
            None => {
                fresh = ScanHub::new(self.analyzer());
                &fresh
            }
        };
        let before = hub.stats();
        let vm_before = scope::snapshot().counter("vm.executions");
        let report = match ledger {
            None => hub.audit(&self.db, &self.device.image, &self.diff),
            Some(ledger) => {
                let dynsrc: Arc<dyn DynProfileSource> = Arc::new(TracedDyn {
                    inner: hub.dyn_source(),
                    ledger: Arc::clone(ledger),
                });
                let source = TracedFeatures {
                    inner: hub.store(),
                    ledger,
                };
                let image = &self.device.image;
                patchecko_core::eval::audit_image_with(
                    &hub.analyzer,
                    &self.db,
                    image,
                    &self.diff,
                    &source,
                    &dynsrc,
                )
            }
        }
        .map_err(|e| format!("audit failed: {e}"))?;
        let (hits, misses) = hits_misses(&hub.stats().since(&before));
        self.cache = (self.cache.0 + hits, self.cache.1 + misses);
        if self.warm.is_some() && scope::snapshot().counter("vm.executions") != vm_before {
            return Err("a warm audit executed the VM".into());
        }
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        match &self.expected {
            Some(expected) if *expected != json => Err("audit report changed between runs".into()),
            Some(_) => Ok(()),
            None => {
                check_audit(&self.device, &self.db, &report)?;
                self.expected = Some(json);
                Ok(())
            }
        }
    }
}

impl Workload for Audit {
    fn gate(&mut self) -> Result<(), String> {
        match &self.expected {
            Some(json) => {
                let report: AuditReport = serde_json::from_str(json).map_err(|e| e.to_string())?;
                check_audit(&self.device, &self.db, &report)
            }
            None => Ok(()),
        }
    }

    fn measure(&mut self, until: Instant, ledger: Option<&Arc<Ledger>>) -> Samples {
        serial(self, until, ledger, |_| {}, Audit::op)
    }

    fn cache(&self) -> (u64, u64) {
        self.cache
    }
}

/// Streaming top-K static scan of a generated CVE-planted corpus. The
/// corpus is compiled during set-up, so a pass times the scan only.
struct Stream {
    topk: Patchecko,
    detector: Detector,
    references: Vec<StaticFeatures>,
    cfg: StreamConfig,
    units: Vec<Binary>,
    batch: Vec<Binary>,
    expected: BTreeSet<(usize, usize)>,
}

impl Stream {
    fn new(seed: u64, model: &str) -> Stream {
        let detector = load_model(model);
        let db = corpus::build_vulndb(0, 1);
        // 25 featured CVEs × 4 platform variants: wide enough that the
        // top-K index really prunes.
        let references = db
            .featured()
            .iter()
            .flat_map(|e| {
                Patchecko::reference_feature_set(e, Basis::Vulnerable).expect("reference features")
            })
            .collect();
        let mut cfg = StreamConfig::sized(STREAM_FUNCTIONS, mix(seed, 2));
        cfg.plant_every = 4;
        let units = CorpusStream::new(cfg.clone()).map(|u| u.binary).collect();
        let retrieval = Retrieval::TopK { k: DEFAULT_TOP_K };
        let topk = Patchecko::new(
            detector.clone(),
            PipelineConfig {
                retrieval,
                ..PipelineConfig::default()
            },
        );
        Stream {
            topk,
            detector,
            references,
            cfg,
            units,
            batch: Vec::new(),
            expected: BTreeSet::new(),
        }
    }

    fn flagged(&self, analyzer: &Patchecko) -> Result<BTreeSet<(usize, usize)>, String> {
        let report = analyzer
            .scan_stream(self.units.iter().cloned(), &self.references, WORKING_SET)
            .map_err(|e| format!("stream scan failed: {e}"))?;
        Ok(report
            .matches
            .iter()
            .map(|m| (m.unit, m.function))
            .collect())
    }

    /// A fresh copy of the corpus for the next pass.
    fn prepare(&mut self) {
        self.batch = self.units.clone();
    }

    /// One pass over the corpus, its matches checked.
    fn op(&mut self, ledger: Option<&Arc<Ledger>>) -> Result<(), String> {
        let batch = std::mem::take(&mut self.batch);
        let report = match ledger {
            None => self.topk.scan_stream(batch, &self.references, WORKING_SET),
            Some(ledger) => {
                let source = TracedFeatures {
                    inner: &DirectExtraction,
                    ledger,
                };
                self.topk
                    .scan_stream_with(batch, &self.references, WORKING_SET, &source)
            }
        }
        .map_err(|e| format!("stream scan failed: {e}"))?;
        let flagged: BTreeSet<(usize, usize)> = report
            .matches
            .iter()
            .map(|m| (m.unit, m.function))
            .collect();
        if flagged != self.expected {
            return Err("streaming matches changed between passes".into());
        }
        if report.functions != self.cfg.total_functions() || report.peak_live > WORKING_SET {
            return Err(format!(
                "scanned {} functions, peak {} units",
                report.functions, report.peak_live
            ));
        }
        Ok(())
    }
}

impl Workload for Stream {
    /// Recall gate: the top-K scan keeps ≥ 99% of the planted CVEs the
    /// exact scan finds, and the exact scan finds ≥ 90% of those planted.
    fn gate(&mut self) -> Result<(), String> {
        let exact = Patchecko::new(self.detector.clone(), PipelineConfig::default());
        let exact_set = self.flagged(&exact)?;
        self.expected = self.flagged(&self.topk)?;
        let planted = corpus::manifest(&self.cfg);
        let found: Vec<(usize, usize)> = planted
            .iter()
            .map(|p| (p.unit, p.function_index))
            .filter(|d| exact_set.contains(d))
            .collect();
        if found.len() * 10 < planted.len() * 9 {
            return Err(format!(
                "exact scan found {}/{} planted CVEs",
                found.len(),
                planted.len()
            ));
        }
        let kept = found.iter().filter(|d| self.expected.contains(*d)).count();
        if kept * 100 < found.len() * 99 {
            return Err(format!("top-K recall {kept}/{} below 99%", found.len()));
        }
        Ok(())
    }

    fn measure(&mut self, until: Instant, ledger: Option<&Arc<Ledger>>) -> Samples {
        serial(self, until, ledger, Stream::prepare, Stream::op)
    }
}

/// One (image, CVE, basis) scan request.
#[derive(Clone)]
struct Request {
    image: usize,
    cve: String,
    basis: Basis,
}

/// The scan daemon under closed-loop load: one client per tenant, each
/// sending its next scan request as soon as the previous one is answered.
/// Set-up warms both tenants' cache namespaces with every request of the
/// mix, so the region measures the service's steady state.
struct Service {
    server: Option<ScanServer>,
    socket: PathBuf,
    seed: u64,
    requests: Vec<Request>,
    /// Expected answer per (tenant, request): the warm-up scan's.
    expected: BTreeMap<(usize, usize), ScanSummary>,
    /// Whether every warm-up scan found the CVE's planted function.
    truth: Result<(), String>,
    stats_before: Option<patchecko_scand::ServiceStats>,
}

impl Service {
    fn new(seed: u64, model: &str) -> Service {
        let analyzer = Patchecko::new(load_model(model), PipelineConfig::default());
        let db = corpus::build_vulndb(0, 1);
        let devices: Vec<DeviceBuild> = (0..SERVICE_IMAGES as u64)
            .map(|i| device(mix(seed, 10 + i)))
            .collect();
        // One request per featured CVE, its image and basis drawn from the
        // seed: every CVE weighs in on every seed, so the mix's cost does
        // not hinge on which CVEs a seed happens to draw.
        let mut rng = mix(seed, 3);
        let requests: Vec<Request> = db
            .featured()
            .iter()
            .map(|e| {
                rng = mix(rng, 0);
                Request {
                    image: (rng % SERVICE_IMAGES as u64) as usize,
                    cve: e.entry.cve.clone(),
                    basis: if (rng >> 32) & 1 == 0 {
                        Basis::Vulnerable
                    } else {
                        Basis::Patched
                    },
                }
            })
            .collect();
        let hub = ScanHub::new(analyzer);
        let mut expected = BTreeMap::new();
        let mut truth = Ok(());
        for (t, tenant) in TENANTS.iter().enumerate() {
            for (r, req) in requests.iter().enumerate() {
                let entry = db.get(&req.cve).expect("featured CVE");
                let analysis = hub
                    .scan_image_tenant(&devices[req.image].image, entry, req.basis, tenant)
                    .expect("warm-up scan");
                let summary = ScanSummary::from_analysis(&analysis);
                if truth.is_ok() {
                    truth = check_scan(&devices[req.image], req, &summary);
                }
                expected.insert((t, r), summary);
            }
        }
        let images = devices.into_iter().map(|d| d.image).collect();
        std::fs::create_dir_all(".bench_run").expect("create .bench_run");
        let socket = PathBuf::from(format!(".bench_run/scand-{}.sock", std::process::id()));
        let mut cfg = ServerConfig::new(&socket);
        cfg.workers = WORKERS;
        let server = ScanServer::start(cfg, hub, images, db).expect("start scan daemon");
        Service {
            server: Some(server),
            socket,
            seed,
            requests,
            expected,
            truth,
            stats_before: None,
        }
    }

    fn client(&self, c: usize, until: Instant) -> Samples {
        let tenant = c % TENANTS.len();
        let mut samples = Samples::default();
        let mut client = match ScanClient::connect(&self.socket, TENANTS[tenant]) {
            Ok(client) => client,
            Err(e) => {
                samples.record(0, 0.0, Err(format!("connect: {e}")));
                return samples;
            }
        };
        let mut rng = mix(self.seed, 100 + c as u64);
        while samples.latencies_ms.is_empty() || Instant::now() < until {
            rng = mix(rng, 0);
            let r = (rng % self.requests.len() as u64) as usize;
            let req = &self.requests[r];
            let t = Instant::now();
            let answer = client.scan(req.image, &req.cve, req.basis);
            let result = match answer {
                Ok(summary) if summary == self.expected[&(tenant, r)] => Ok(()),
                Ok(_) => Err(format!(
                    "{} on image {}: answer differs from the warm-up scan",
                    req.cve, req.image
                )),
                Err(e) => Err(format!("{}: {e}", req.cve)),
            };
            samples.record(r, t.elapsed().as_secs_f64() * 1e3, result);
        }
        samples
    }

    fn server(&self) -> &ScanServer {
        self.server.as_ref().expect("daemon running")
    }
}

impl Workload for Service {
    fn gate(&mut self) -> Result<(), String> {
        self.truth.clone()
    }

    fn measure(&mut self, until: Instant, _: Option<&Arc<Ledger>>) -> Samples {
        self.stats_before = Some(self.server().stats());
        let this = &*self;
        let parts: Vec<Samples> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || this.client(c, until)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut all = Samples::default();
        for part in parts {
            all.latencies_ms.extend(part.latencies_ms);
            all.calibrated.extend(part.calibrated);
            all.failed += part.failed;
            if all.first_error.is_none() {
                all.first_error = part.first_error;
            }
        }
        all
    }

    fn cache(&self) -> (u64, u64) {
        hits_misses(&self.server().stats().cache)
    }

    /// The daemon runs the pipeline on its own threads, out of reach of
    /// the traced sources: its layers come from its stats and stage spans.
    fn layers(
        &self,
        _: &Ledger,
        snap: &TelemetrySnapshot,
        samples: &Samples,
    ) -> BTreeMap<&'static str, f64> {
        let after = self.server().stats();
        let before = self
            .stats_before
            .as_ref()
            .expect("stats taken at measure start");
        let requests = samples.latencies_ms.len().max(1) as f64;
        let (mut jobs, mut server_ms) = (0u64, 0.0);
        for (name, t) in &after.tenants {
            let old = before.tenants.get(name).cloned().unwrap_or_default();
            let lat = |s: &patchecko_scand::TenantStats| s.latency.clone().unwrap_or_default();
            let d = lat(t).since(&lat(&old));
            jobs += d.count;
            server_ms += d.total_ns as f64 / 1e6;
        }
        let jobs_f = jobs.max(1) as f64;
        let static_ms = ledger::span_ms(snap, "static_scan") / jobs_f;
        let dynamic_ms = ledger::span_ms(snap, "dynamic_stage") / jobs_f;
        let server = server_ms / jobs_f;
        let unattributed = (server - static_ms - dynamic_ms).max(0.0);
        let mut m = BTreeMap::new();
        m.insert("server_ms", server);
        m.insert("classify_ms", static_ms);
        m.insert("dynamic_stage_ms", dynamic_ms);
        m.insert("unattributed_ms", unattributed);
        m.insert(
            "unattributed_share",
            if server > 0.0 {
                unattributed / server
            } else {
                0.0
            },
        );
        m.insert(
            "vm_executions",
            snap.counter("vm.executions") as f64 / requests,
        );
        m.insert(
            "pool_dispatches",
            snap.counter("pool.dispatches") as f64 / requests,
        );
        m
    }

    fn finish(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            let drained = ScanClient::connect(&self.socket, "").and_then(|mut c| c.drain());
            if drained.is_ok() {
                server.join();
            }
        }
        let _ = std::fs::remove_dir(".bench_run");
    }
}
