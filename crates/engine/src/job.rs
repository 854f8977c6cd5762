//! Batch specifications: what to predict, for which matrices, under which
//! sweep — plus the line-based on-disk spec format of `spmv-locality batch`.

use locality_core::{FormatSpec, Method, ReorderSpec, RhsLayout, ScenarioSpec, SectorSetting};
use machine::MachineSpec;
use std::fmt;
use std::path::PathBuf;

/// Where a job's matrix comes from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MatrixSource {
    /// `count` synthetic corpus matrices (the §4.1 population) at
    /// `1/scale` size from `seed`.
    Corpus {
        /// Number of matrices to generate.
        count: usize,
        /// Size divisor (matches the machine scale).
        scale: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The 18 Table 1 analogues at `1/scale` size.
    Table1 {
        /// Size divisor.
        scale: usize,
    },
    /// A MatrixMarket file on disk.
    MtxFile(PathBuf),
}

/// A full batch: the cross product of matrices × methods × settings.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSpec {
    /// Matrix sources, resolved in order.
    pub sources: Vec<MatrixSource>,
    /// Model variants to run per matrix.
    pub methods: Vec<Method>,
    /// Sector settings to evaluate per matrix and method.
    pub settings: Vec<SectorSetting>,
    /// Modeled SpMV thread count.
    pub threads: usize,
    /// Machine scale divisor (1 = full A64FX).
    pub scale: usize,
    /// Engine worker threads (0 = all host cores).
    pub workers: usize,
    /// Storage format the resolved matrices are converted to.
    pub format: FormatSpec,
    /// Row reordering applied before format conversion.
    pub reorder: ReorderSpec,
    /// Kernel scenario traced on top of the storage format: plain SpMV
    /// (default), `k`-RHS SpMM, or a CG iteration.
    pub scenario: ScenarioSpec,
    /// Machines to sweep the batch over (`machine` directives accumulate,
    /// like sources). Empty means the default `a64fx`, whose reports stay
    /// byte-identical to the pre-machine-dimension output.
    pub machines: Vec<MachineSpec>,
    /// Attach an ECM throughput estimate (`"ecm":{...}`) to every report.
    /// Off by default — the field's absence keeps legacy bytes.
    pub ecm: bool,
    /// Wall-clock budget for the whole batch, in milliseconds. `None`
    /// (default) runs to completion; with a deadline the run is
    /// cooperatively cancelled at its next checkpoint once the budget
    /// expires and reports a typed deadline error instead of a partial
    /// result. The serve daemon reuses this machinery per request.
    pub deadline_ms: Option<u64>,
}

impl Default for BatchSpec {
    fn default() -> Self {
        BatchSpec {
            sources: Vec::new(),
            methods: vec![Method::A, Method::B],
            settings: SectorSetting::paper_sweep(),
            threads: 1,
            scale: 16,
            workers: 0,
            format: FormatSpec::Csr,
            reorder: ReorderSpec::None,
            scenario: ScenarioSpec::Spmv,
            machines: Vec::new(),
            ecm: false,
            deadline_ms: None,
        }
    }
}

/// Where [`BatchSpec::parse`] saw the directives the machine check
/// reports against.
#[derive(Default)]
struct DirectiveLines {
    scale: Option<usize>,
    threads: Option<usize>,
    machines: Vec<usize>,
}

/// A malformed batch spec, with the offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec text.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

/// Parses `key=value` pairs, all keys optional.
fn parse_kv<'a>(
    line: usize,
    parts: impl Iterator<Item = &'a str>,
    allowed: &[&str],
) -> Result<Vec<(&'a str, u64)>, SpecError> {
    let mut out = Vec::new();
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected key=value, got '{part}'")))?;
        if !allowed.contains(&key) {
            return Err(err(
                line,
                format!("unknown key '{key}' (expected {})", allowed.join("/")),
            ));
        }
        let value: u64 = value
            .parse()
            .map_err(|_| err(line, format!("'{value}' is not a number (for {key})")))?;
        out.push((key, value));
    }
    Ok(out)
}

impl BatchSpec {
    /// Parses the line-based spec format:
    ///
    /// ```text
    /// # comment
    /// corpus count=20 scale=16 seed=2023   # synthetic §4.1 corpus
    /// table1 scale=16                      # the 18 Table 1 analogues
    /// mtx path/to/matrix.mtx               # a MatrixMarket file
    /// methods A,B                          # default: A,B
    /// settings off,2..7                    # or "paper" or "off,3,5"
    /// threads 1                            # modeled SpMV threads
    /// scale 16                             # machine scale divisor
    /// workers 0                            # engine threads (0 = all cores)
    /// format sell:32,128                   # csr (default) or sell:C,sigma
    /// reorder rcm                          # none (default) or rcm
    /// rhs 16 col                           # SpMM right-hand sides (layout: row)
    /// workload cg                          # spmv (default), cg or spmm:K[,row|col]
    /// machine generic-x86                  # machines accumulate (default: a64fx)
    /// ecm on                               # attach ECM Gflop/s to every report
    /// deadline_ms 5000                     # whole-batch budget (default: none)
    /// ```
    ///
    /// Directives may appear in any order; matrix sources accumulate,
    /// scalar directives overwrite. At least one source is required.
    pub fn parse(text: &str) -> Result<BatchSpec, SpecError> {
        let mut spec = BatchSpec::default();
        // Lines of the last `scale` and `threads` directives and of each
        // `machine`, for the whole-spec machine check after the loop.
        let mut lines = DirectiveLines::default();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line");
            match directive {
                "corpus" => {
                    let (mut count, mut scale, mut seed) = (20, spec.scale as u64, 2023);
                    for (k, v) in parse_kv(line_no, &mut words, &["count", "scale", "seed"])? {
                        match k {
                            "count" => count = v as usize,
                            "scale" => scale = v,
                            _ => seed = v,
                        }
                    }
                    if count == 0 {
                        return Err(err(line_no, "corpus count must be at least 1"));
                    }
                    if scale == 0 {
                        return Err(err(line_no, "corpus scale must be at least 1"));
                    }
                    spec.sources.push(MatrixSource::Corpus {
                        count,
                        scale: scale as usize,
                        seed,
                    });
                }
                "table1" => {
                    let mut scale = spec.scale as u64;
                    for (_, v) in parse_kv(line_no, &mut words, &["scale"])? {
                        scale = v;
                    }
                    let max = corpus::table1_max_scale();
                    if !(1..=max as u64).contains(&scale) {
                        return Err(err(
                            line_no,
                            format!("table1 scale must be 1..={max} (got {scale})"),
                        ));
                    }
                    spec.sources.push(MatrixSource::Table1 {
                        scale: scale as usize,
                    });
                }
                "mtx" => {
                    // The path is the rest of the line (it may contain
                    // spaces), so consume the word iterator wholesale.
                    words.by_ref().for_each(drop);
                    let path = line["mtx".len()..].trim();
                    if path.is_empty() {
                        return Err(err(line_no, "mtx needs a file path"));
                    }
                    spec.sources
                        .push(MatrixSource::MtxFile(PathBuf::from(path)));
                }
                "methods" => {
                    let arg = words
                        .next()
                        .ok_or_else(|| err(line_no, "methods needs A, B or A,B"))?;
                    spec.methods = arg
                        .split(',')
                        .map(|m| match m.trim() {
                            "A" | "a" => Ok(Method::A),
                            "B" | "b" => Ok(Method::B),
                            "both" => Err(err(line_no, "write 'methods A,B' instead of 'both'")),
                            other => Err(err(line_no, format!("unknown method '{other}'"))),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "settings" => {
                    let arg = words
                        .next()
                        .ok_or_else(|| err(line_no, "settings needs off,2..7 / paper / a list"))?;
                    spec.settings = parse_settings(line_no, arg)?;
                }
                "format" => {
                    let arg = words
                        .next()
                        .ok_or_else(|| err(line_no, "format needs csr or sell:C,sigma"))?;
                    spec.format = FormatSpec::parse(arg).map_err(|e| err(line_no, e))?;
                }
                "reorder" => {
                    let arg = words
                        .next()
                        .ok_or_else(|| err(line_no, "reorder needs none or rcm"))?;
                    spec.reorder = ReorderSpec::parse(arg).map_err(|e| err(line_no, e))?;
                }
                "rhs" => {
                    let k: usize = words
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(line_no, "rhs needs a positive RHS count"))?;
                    if k == 0 {
                        return Err(err(line_no, "rhs must be at least 1"));
                    }
                    let layout = match words.next() {
                        Some(arg) => RhsLayout::parse(arg).map_err(|e| err(line_no, e))?,
                        None => RhsLayout::default(),
                    };
                    spec.scenario = ScenarioSpec::Spmm { k, layout };
                }
                "workload" => {
                    let arg = words.next().ok_or_else(|| {
                        err(line_no, "workload needs spmv, cg or spmm:K[,row|col]")
                    })?;
                    spec.scenario = ScenarioSpec::parse(arg).map_err(|e| err(line_no, e))?;
                }
                "machine" => {
                    let arg = words.next().ok_or_else(|| {
                        err(line_no, "machine needs a64fx, generic-x86 or custom:<spec>")
                    })?;
                    let parsed =
                        MachineSpec::parse(arg).map_err(|e| err(line_no, e.to_string()))?;
                    if spec.machines.contains(&parsed) {
                        return Err(err(line_no, format!("machine '{arg}' given twice")));
                    }
                    spec.machines.push(parsed);
                    lines.machines.push(line_no);
                }
                "ecm" => {
                    let arg = words
                        .next()
                        .ok_or_else(|| err(line_no, "ecm needs on or off"))?;
                    spec.ecm = match arg {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(err(line_no, format!("ecm needs on or off, got '{other}'")))
                        }
                    };
                }
                "threads" | "scale" | "workers" | "deadline_ms" => {
                    let arg = words
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| err(line_no, format!("{directive} needs a number")))?;
                    match directive {
                        "threads" => {
                            if arg == 0 {
                                return Err(err(line_no, "threads must be at least 1"));
                            }
                            spec.threads = usize::try_from(arg).unwrap_or(usize::MAX);
                            lines.threads = Some(line_no);
                        }
                        "scale" => {
                            if arg == 0 {
                                return Err(err(line_no, "scale must be at least 1"));
                            }
                            spec.scale = arg as usize;
                            lines.scale = Some(line_no);
                        }
                        "deadline_ms" => {
                            if arg == 0 {
                                return Err(err(line_no, "deadline_ms must be at least 1"));
                            }
                            spec.deadline_ms = Some(arg);
                        }
                        _ => spec.workers = arg as usize,
                    }
                }
                other => {
                    return Err(err(
                        line_no,
                        format!(
                            "unknown directive '{other}' (expected corpus/table1/mtx/methods/settings/threads/scale/workers/format/reorder/rhs/workload/machine/ecm/deadline_ms)"
                        ),
                    ));
                }
            }
            if let Some(extra) = words.next() {
                return Err(err(line_no, format!("unexpected trailing '{extra}'")));
            }
        }
        if spec.sources.is_empty() {
            return Err(err(
                0,
                "spec names no matrices (add corpus/table1/mtx lines)",
            ));
        }
        // Checked once the spec is complete, since `scale`, `threads` and
        // `machine` lines may come in any order.
        spec.check_machines_at(&lines)?;
        Ok(spec)
    }

    /// The machines the batch sweeps: its `machine` directives, or the
    /// implicit `a64fx` default.
    pub fn machine_specs(&self) -> &[MachineSpec] {
        const DEFAULT: [MachineSpec; 1] = [MachineSpec::A64fx];
        if self.machines.is_empty() {
            &DEFAULT
        } else {
            &self.machines
        }
    }

    /// Checks the spec against every machine it sweeps: `scale` must
    /// divide each machine's caches into whole sets, and `threads` must
    /// not exceed any machine's core count (a thread count past the cores
    /// would model a larger machine than the one named, and sizes the
    /// row partition before anything else could bound it). [`parse`]
    /// runs this on the finished spec; a caller that changes
    /// [`machines`](Self::machines) afterwards runs it again. Errors
    /// carry line 0.
    ///
    /// [`parse`]: Self::parse
    pub fn check_machines(&self) -> Result<(), SpecError> {
        self.check_machines_at(&DirectiveLines::default())
    }

    fn check_machines_at(&self, lines: &DirectiveLines) -> Result<(), SpecError> {
        for (k, machine) in self.machine_specs().iter().enumerate() {
            let machine_line = lines.machines.get(k).copied();
            let hier = machine.try_hierarchy(self.scale).map_err(|e| {
                err(
                    lines.scale.or(machine_line).unwrap_or(0),
                    format!(
                        "scale {} does not fit machine '{}': {e}",
                        self.scale,
                        machine.label()
                    ),
                )
            })?;
            if self.threads > hier.num_cores {
                return Err(err(
                    lines.threads.or(machine_line).unwrap_or(0),
                    format!(
                        "threads {} exceeds the {} cores of machine '{}'",
                        self.threads,
                        hier.num_cores,
                        machine.label()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Total jobs this spec expands to per resolved matrix.
    pub fn jobs_per_matrix(&self) -> usize {
        self.num_machines() * self.methods.len() * self.settings.len()
    }

    /// Machines the batch sweeps (1 for the implicit `a64fx` default).
    pub fn num_machines(&self) -> usize {
        self.machines.len().max(1)
    }
}

/// Parses a settings list: `paper`, or comma-separated items where each
/// item is `off`, a way count `w`, or a way range `lo..hi` (inclusive).
fn parse_settings(line: usize, arg: &str) -> Result<Vec<SectorSetting>, SpecError> {
    if arg == "paper" {
        return Ok(SectorSetting::paper_sweep());
    }
    let mut out = Vec::new();
    for item in arg.split(',') {
        let item = item.trim();
        if item.eq_ignore_ascii_case("off") {
            out.push(SectorSetting::Off);
        } else if let Some((lo, hi)) = item.split_once("..") {
            let lo: usize = lo
                .parse()
                .map_err(|_| err(line, format!("bad range start '{lo}'")))?;
            let hi: usize = hi
                .parse()
                .map_err(|_| err(line, format!("bad range end '{hi}'")))?;
            if lo == 0 || hi < lo {
                return Err(err(line, format!("bad way range '{item}'")));
            }
            out.extend((lo..=hi).map(SectorSetting::L2Ways));
        } else {
            let w: usize = item
                .parse()
                .map_err(|_| err(line, format!("bad setting '{item}'")))?;
            if w == 0 {
                return Err(err(line, "0 ways means off — write 'off'"));
            }
            out.push(SectorSetting::L2Ways(w));
        }
    }
    if out.is_empty() {
        return Err(err(line, "empty settings list"));
    }
    Ok(out)
}

/// One unit of work: one matrix, one method, one sector setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Position in the batch (stable output order).
    pub id: usize,
    /// Index into the resolved machine list.
    pub machine: usize,
    /// Model variant.
    pub method: Method,
    /// Sector setting to evaluate.
    pub setting: SectorSetting,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = BatchSpec::parse(
            "# demo\n\
             corpus count=20 scale=32 seed=7\n\
             table1 scale=32\n\
             mtx data/a file.mtx\n\
             methods A,B\n\
             settings off,2..7\n\
             threads 4\n\
             scale 32   # trailing comment\n\
             workers 8\n",
        )
        .unwrap();
        assert_eq!(spec.sources.len(), 3);
        assert_eq!(
            spec.sources[0],
            MatrixSource::Corpus {
                count: 20,
                scale: 32,
                seed: 7
            }
        );
        assert_eq!(spec.sources[1], MatrixSource::Table1 { scale: 32 });
        assert_eq!(
            spec.sources[2],
            MatrixSource::MtxFile(PathBuf::from("data/a file.mtx"))
        );
        assert_eq!(spec.methods, vec![Method::A, Method::B]);
        assert_eq!(spec.settings, SectorSetting::paper_sweep());
        assert_eq!((spec.threads, spec.scale, spec.workers), (4, 32, 8));
        assert_eq!(spec.jobs_per_matrix(), 14);
    }

    #[test]
    fn settings_forms() {
        let s = |arg: &str| parse_settings(1, arg).unwrap();
        assert_eq!(s("paper"), SectorSetting::paper_sweep());
        assert_eq!(s("off"), vec![SectorSetting::Off]);
        assert_eq!(
            s("off,3,5"),
            vec![
                SectorSetting::Off,
                SectorSetting::L2Ways(3),
                SectorSetting::L2Ways(5)
            ]
        );
        assert_eq!(s("2..4").len(), 3);
        assert!(parse_settings(1, "0").is_err());
        assert!(parse_settings(1, "5..2").is_err());
        assert!(parse_settings(1, "banana").is_err());
    }

    #[test]
    fn parses_format_and_reorder() {
        let spec = BatchSpec::parse(
            "corpus count=2\n\
             format sell:32,128\n\
             reorder rcm\n",
        )
        .unwrap();
        assert_eq!(
            spec.format,
            FormatSpec::Sell {
                chunk_size: 32,
                sigma: 128
            }
        );
        assert_eq!(spec.reorder, ReorderSpec::Rcm);
        assert!(BatchSpec::parse("corpus count=1\nformat sell\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nformat\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nreorder sorted\n").is_err());
    }

    #[test]
    fn parses_rhs_and_workload() {
        let spec = BatchSpec::parse("corpus count=1\nrhs 16\n").unwrap();
        assert_eq!(
            spec.scenario,
            ScenarioSpec::Spmm {
                k: 16,
                layout: RhsLayout::Interleaved
            }
        );
        let spec = BatchSpec::parse("corpus count=1\nrhs 4 col\n").unwrap();
        assert_eq!(
            spec.scenario,
            ScenarioSpec::Spmm {
                k: 4,
                layout: RhsLayout::Separate
            }
        );
        let spec = BatchSpec::parse("corpus count=1\nworkload cg\n").unwrap();
        assert_eq!(spec.scenario, ScenarioSpec::Cg);
        let spec = BatchSpec::parse("corpus count=1\nworkload spmm:8,col\n").unwrap();
        assert_eq!(
            spec.scenario,
            ScenarioSpec::Spmm {
                k: 8,
                layout: RhsLayout::Separate
            }
        );
        // `workload spmv` resets an earlier rhs directive (last one wins).
        let spec = BatchSpec::parse("corpus count=1\nrhs 4\nworkload spmv\n").unwrap();
        assert_eq!(spec.scenario, ScenarioSpec::Spmv);
        assert!(BatchSpec::parse("corpus count=1\nrhs 0\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nrhs\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nrhs 4 diag\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nrhs 4 col extra\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nworkload spmm\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nworkload lu\n").is_err());
    }

    #[test]
    fn threads_beyond_any_machine_cores_are_spec_errors() {
        // The a64fx default has 48 cores: 48 passes, 49 is refused on its
        // own line, naming both numbers.
        assert!(BatchSpec::parse("corpus count=1\nthreads 48\nscale 64\n").is_ok());
        let e = BatchSpec::parse("corpus count=1\nthreads 49\nscale 64\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("threads 49 exceeds the 48 cores"), "{e}");
        // Every swept machine must fit, in any directive order.
        let e =
            BatchSpec::parse("corpus count=1\nthreads 12\nmachine a64fx\nmachine generic-x86\n")
                .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("8 cores of machine 'generic-x86'"),
            "{e}"
        );
        // Refused before anything is sized by the thread count.
        let e = BatchSpec::parse("corpus count=1\nthreads 18446744073709551615\n").unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
        // A spec whose machines change after parsing is checked again.
        let mut spec = BatchSpec::parse("corpus count=1\nthreads 48\n").unwrap();
        spec.machines = vec![MachineSpec::GenericX86];
        assert_eq!(spec.check_machines().unwrap_err().line, 0);
    }

    #[test]
    fn parses_machines_and_ecm() {
        let spec = BatchSpec::parse(
            "corpus count=1\n\
             machine a64fx\n\
             machine generic-x86\n\
             machine custom:cores=2;l1=8k,4,64;l2=256k,8,64;mem=40g\n\
             ecm on\n",
        )
        .unwrap();
        assert_eq!(spec.machines.len(), 3);
        assert_eq!(spec.machines[0], MachineSpec::A64fx);
        assert_eq!(spec.machines[1], MachineSpec::GenericX86);
        assert!(matches!(spec.machines[2], MachineSpec::Custom(_)));
        assert!(spec.ecm);
        assert_eq!(spec.num_machines(), 3);
        assert_eq!(spec.jobs_per_matrix(), 3 * 2 * 7);

        // No machine directive: the implicit a64fx default.
        let spec = BatchSpec::parse("corpus count=1\n").unwrap();
        assert!(spec.machines.is_empty());
        assert!(!spec.ecm);
        assert_eq!(spec.num_machines(), 1);

        let off = BatchSpec::parse("corpus count=1\necm on\necm off\n").unwrap();
        assert!(!off.ecm);

        assert!(BatchSpec::parse("corpus count=1\nmachine sparc\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\nmachine\n").is_err());
        assert!(
            BatchSpec::parse("corpus count=1\nmachine a64fx\nmachine a64fx\n").is_err(),
            "duplicate machine"
        );
        assert!(BatchSpec::parse("corpus count=1\necm yes\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\necm\n").is_err());
        // Parse errors surface the machine crate's pointed message.
        let err = BatchSpec::parse("corpus count=1\nmachine custom:l1=32k,0,64;l2=1m,16,64\n")
            .unwrap_err();
        assert!(err.message.contains("zero ways"), "{err}");
    }

    #[test]
    fn parses_deadline_ms() {
        let spec = BatchSpec::parse("corpus count=1\ndeadline_ms 2500\n").unwrap();
        assert_eq!(spec.deadline_ms, Some(2500));
        assert!(BatchSpec::parse("corpus count=1\ndeadline_ms 0\n").is_err());
        assert!(BatchSpec::parse("corpus count=1\ndeadline_ms soon\n").is_err());
    }

    #[test]
    fn source_scales_out_of_range_are_spec_errors() {
        let max = corpus::table1_max_scale();
        for (text, line) in [
            ("corpus count=1 scale=0 seed=1\n", 1),
            ("methods A\ntable1 scale=0\n", 2),
            ("table1 scale=18446744073709551615\n", 1),
            (&format!("table1 scale={}\n", max + 1), 1),
        ] {
            let err = BatchSpec::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains("scale"), "{err}");
        }
        let spec = BatchSpec::parse(&format!("table1 scale={max}\n")).unwrap();
        assert_eq!(spec.sources, [MatrixSource::Table1 { scale: max }]);
    }

    #[test]
    fn defaults_apply() {
        let spec = BatchSpec::parse("corpus count=5\n").unwrap();
        assert_eq!(spec.methods, vec![Method::A, Method::B]);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.settings.len(), 7);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.format, FormatSpec::Csr);
        assert_eq!(spec.reorder, ReorderSpec::None);
        // Source without explicit scale inherits the spec default.
        assert_eq!(
            spec.sources[0],
            MatrixSource::Corpus {
                count: 5,
                scale: 16,
                seed: 2023
            }
        );
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(BatchSpec::parse("").is_err(), "no sources");
        assert!(BatchSpec::parse("corpus count=banana\n").is_err());
        assert!(BatchSpec::parse("warp 9\n").is_err(), "unknown directive");
        assert!(
            BatchSpec::parse("corpus count=1 speed=3\n").is_err(),
            "unknown key"
        );
        assert!(
            BatchSpec::parse("mtx\ncorpus count=1\n").is_err(),
            "mtx without path"
        );
        assert!(BatchSpec::parse("threads 0\ncorpus count=1\n").is_err());
        assert!(BatchSpec::parse("methods C\ncorpus count=1\n").is_err());
        assert!(
            BatchSpec::parse("threads 1 2\ncorpus count=1\n").is_err(),
            "trailing word"
        );
    }

    #[test]
    fn rejects_scale_that_splits_cache_sets() {
        // a64fx at 1/3 size: the L1 is no longer a whole number of sets.
        let e = BatchSpec::parse("corpus count=1\nscale 3\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("scale 3"), "{e}");
        // A later machine line is checked against an earlier scale line.
        let e =
            BatchSpec::parse("corpus count=1\nscale 64\nmachine custom:l1=24k,8,64;l2=1m,16,64\n")
                .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        // Without a scale line, the default scale is blamed on the machine.
        let e = BatchSpec::parse(
            "corpus count=1\nmachine a64fx\nmachine custom:l1=36k,8,64;l2=1m,16,64\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(BatchSpec::parse("corpus count=1\nscale 64\n").is_ok());
    }
}
