//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod daemon;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig8_fleet;
pub mod pipeline;
pub mod registry;
pub mod replay_speed;
pub mod table2;

use sanity_tdr::{AuditConfig, BatchReport, Sanity, Sessions};

/// Audit the TDRB batch `tdrb` on a fresh service built from `cfg` and
/// shut it down: the cold path, worker spawn and cache build included.
/// Like a one-shot audit, `cfg.workers == 0` means one worker per core,
/// and no more workers spawn than `cfg.high_water` residency slots.
pub fn audit_tdrb_cold(sanity: &Sanity, tdrb: &[u8], cfg: &AuditConfig) -> BatchReport {
    let workers = cfg.resolved_workers().min(cfg.high_water).max(1);
    let service = sanity
        .audit_service()
        .config(AuditConfig { workers, ..*cfg })
        .build()
        .expect("valid audit configuration");
    let report = service
        .submit(Sessions::tdrb(std::io::Cursor::new(tdrb.to_vec())), None)
        .expect("batch header decodes")
        .wait()
        .expect("batch audits");
    service.shutdown();
    report
}

/// Global harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Paper-scale parameters (slower, closer to the original sizes).
    pub full: bool,
    /// Override the per-cell run count (0 = experiment default).
    pub runs: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: String,
    /// `repro pipeline --stream`: run the streaming-ingest throughput
    /// comparison (streamed vs materialized) instead of the worker sweep.
    pub stream: bool,
    /// `repro daemon --tcp`: serve the daemon over a real localhost TCP
    /// listener and sweep concurrent connection counts instead of the
    /// warm-vs-cold duplex comparison.
    pub tcp: bool,
    /// `repro daemon --tcp --backends N`: put a coordinator in front of
    /// up to N backend daemons and sweep the fleet size (0 = no
    /// coordinator, the plain `--tcp` experiment).
    pub backends: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            full: false,
            runs: 0,
            out_dir: "results".to_string(),
            stream: false,
            tcp: false,
            backends: 0,
        }
    }
}

impl Options {
    /// The effective run count: the override, or the given default.
    pub fn runs_or(&self, default_small: usize, default_full: usize) -> usize {
        if self.runs > 0 {
            self.runs
        } else if self.full {
            default_full
        } else {
            default_small
        }
    }

    /// Write an artifact file under the results directory.
    pub fn write(&self, name: &str, content: &str) {
        let path = format!("{}/{}", self.out_dir, name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("[repro] wrote {path}");
    }
}

/// Format picoseconds as milliseconds.
pub fn ps_to_ms(ps: u128) -> f64 {
    ps as f64 / 1e9
}

/// Cycles at the default 100 MHz clock, in milliseconds.
pub fn cycles_to_ms(c: u64) -> f64 {
    c as f64 / 100_000.0
}
