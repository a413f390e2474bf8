//! Shared random-litmus-program generator for the differential fuzz
//! suites (`oracle_fuzz` pins work-stealing vs sequential, `spill_oracle`
//! pins spill-to-disk vs in-memory). One generator, one program shape
//! per seed, however many engine configurations check it.

#![allow(dead_code)] // each test binary uses a subset of the helpers

use ppcmem::bits::Prng;
use ppcmem::idl::Reg;

/// Shared memory locations the generator draws from.
pub const LOC_NAMES: [&str; 3] = ["x", "y", "z"];

/// Barrier menu (everything the front end accepts that reaches the
/// model: full sync, lwsync, eieio, and the execution barrier isync).
pub const BARRIERS: [&str; 4] = ["sync", "lwsync", "eieio", "isync"];

/// One generated litmus program plus the observation footprint the
/// differential check explores with.
pub struct GenProgram {
    /// The `.litmus` source text (fed through the real parser, so the
    /// fuzzer also exercises the front end).
    pub source: String,
    /// Every load destination register, by thread.
    pub reg_obs: Vec<(usize, Reg)>,
}

/// Generate one random program from `seed`.
///
/// Shapes are kept small enough that exhaustive exploration stays in
/// CI-friendly territory: thread counts are weighted toward 2–3, and
/// per-thread operation counts shrink as the thread count grows (the
/// state space is roughly exponential in total operations).
///
/// The op menu covers plain loads/stores, barriers,
/// address/data/control dependencies, `lwarx`/`stwcx.`
/// read-modify-write pairs (the loaded value is observed, and the
/// store-conditional's success/failure branching is part of the
/// explored envelope), and real wrong paths: a conditional branch over
/// one of those ops, so the differentials also run speculative
/// instances that a branch's `Finish` later prunes.
pub fn gen_program(seed: u64) -> GenProgram {
    let mut rng = Prng::seed_from_u64(seed);
    let nthreads: usize = [2, 2, 2, 3, 3, 4][rng.gen_range(0..6usize)];
    let nlocs: usize = rng.gen_range(2..4usize);
    // The state space is roughly exponential in the *total* number of
    // memory operations, so the generator budgets operations across the
    // whole program (3 or 4), not per thread: every thread gets at least
    // one, the surplus lands at random (capped at 3 per thread).
    let total_ops = (3 + rng.gen_range(0..2usize)).max(nthreads);
    let mut ops_of = vec![1usize; nthreads];
    let mut surplus = total_ops.saturating_sub(nthreads);
    while surplus > 0 {
        let t = rng.gen_range(0..nthreads);
        if ops_of[t] < 3 {
            ops_of[t] += 1;
            surplus -= 1;
        }
    }

    let mut reg_obs: Vec<(usize, Reg)> = Vec::new();
    let mut threads: Vec<Vec<String>> = Vec::new();
    for (tid, &nops) in ops_of.iter().enumerate() {
        let mut th = ThreadGen {
            tid,
            nlocs,
            lines: Vec::new(),
            // r1..r{nlocs} hold location addresses; fresh value
            // registers are allocated from r4 up (r0 is avoided: it
            // reads as zero in D-form addressing).
            next_reg: 4,
            last_load: None,
            reg_obs: &mut reg_obs,
        };
        let mut op = 0;
        while op < nops {
            let loc_reg = 1 + rng.gen_range(0..nlocs as u8);
            let kind = rng.gen_range(0..12u32);
            if kind == 9 && op + 1 < nops {
                // A control op with a slot to spare becomes a real wrong
                // path: the branch and the op it skips take two slots.
                th.wrong_path(&mut rng, loc_reg, op);
                op += 2;
            } else {
                th.op(&mut rng, kind, loc_reg, op);
                op += 1;
            }
        }
        threads.push(th.lines);
    }

    // Init block: address registers for every thread, zeroed locations.
    let mut init = String::new();
    for tid in 0..nthreads {
        for (i, loc) in LOC_NAMES.iter().take(nlocs).enumerate() {
            init.push_str(&format!("{tid}:r{}={loc}; ", i + 1));
        }
        init.push('\n');
    }
    for loc in LOC_NAMES.iter().take(nlocs) {
        init.push_str(&format!("{loc}=0; "));
    }

    // Column-per-thread code table.
    let header: Vec<String> = (0..nthreads).map(|t| format!("P{t}")).collect();
    let mut table = format!(" {} ;\n", header.join(" | "));
    let rows = threads.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rows {
        let cells: Vec<&str> = threads
            .iter()
            .map(|t| t.get(r).map_or("", String::as_str))
            .collect();
        table.push_str(&format!(" {} ;\n", cells.join(" | ")));
    }

    // A plausible exists-condition over the loaded registers (the
    // differential check observes the registers directly, but this keeps
    // the generated source a complete, parser-valid litmus test).
    let cond = if reg_obs.is_empty() {
        "exists (true)".to_owned()
    } else {
        let atoms: Vec<String> = reg_obs
            .iter()
            .map(|&(tid, reg)| {
                let Reg::Gpr(g) = reg else { unreachable!() };
                format!("{tid}:r{g}={}", rng.gen_range(0..3u64))
            })
            .collect();
        format!("exists ({})", atoms.join(" /\\ "))
    };

    GenProgram {
        source: format!("POWER FUZZ_{seed:016x}\n{{\n{init}\n}}\n{table}{cond}\n"),
        reg_obs,
    }
}

/// One thread's code as [`gen_program`] builds it.
struct ThreadGen<'a> {
    tid: usize,
    nlocs: usize,
    lines: Vec<String>,
    next_reg: u8,
    /// Destination of the most recent load, for dependency ops.
    last_load: Option<u8>,
    reg_obs: &'a mut Vec<(usize, Reg)>,
}

impl ThreadGen<'_> {
    fn alloc(&mut self) -> u8 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// A load into a fresh, observed register.
    fn load(&mut self, rd: u8, line: String) {
        self.lines.push(line);
        self.last_load = Some(rd);
        self.reg_obs.push((self.tid, Reg::Gpr(rd)));
    }

    /// Emit one operation of shape `kind` (`0..12`) on the location in
    /// `loc_reg`; `op` names its labels.
    fn op(&mut self, rng: &mut Prng, kind: u32, loc_reg: u8, op: usize) {
        match kind {
            // Plain store of a small constant.
            0..=2 => {
                let rc = self.alloc();
                let k = rng.gen_range(1..3u64);
                self.lines.push(format!("li r{rc},{k}"));
                self.lines.push(format!("stw r{rc},0(r{loc_reg})"));
            }
            // Plain load.
            3..=5 => {
                let rd = self.alloc();
                self.load(rd, format!("lwz r{rd},0(r{loc_reg})"));
            }
            // A barrier.
            6 => {
                let barrier = BARRIERS[rng.gen_range(0..BARRIERS.len())];
                self.lines.push(barrier.to_owned());
            }
            // Address-dependent load (falls back to a plain load when
            // no prior load exists to depend on).
            7 => {
                let rd = self.alloc();
                if let Some(rp) = self.last_load {
                    let rt = self.alloc();
                    self.lines.push(format!("xor r{rt},r{rp},r{rp}"));
                    self.load(rd, format!("lwzx r{rd},r{loc_reg},r{rt}"));
                } else {
                    self.load(rd, format!("lwz r{rd},0(r{loc_reg})"));
                }
            }
            // Data-dependent store.
            8 => {
                let rt = self.alloc();
                let k = rng.gen_range(1..3u64);
                if let Some(rp) = self.last_load {
                    self.lines.push(format!("xor r{rt},r{rp},r{rp}"));
                    self.lines.push(format!("addi r{rt},r{rt},{k}"));
                } else {
                    self.lines.push(format!("li r{rt},{k}"));
                }
                self.lines.push(format!("stw r{rt},0(r{loc_reg})"));
            }
            // Control-dependent store (an always-taken compare/branch
            // off the last load, as in the MP+sync+ctrl family).
            9 => {
                let rc = self.alloc();
                let k = rng.gen_range(1..3u64);
                if let Some(rp) = self.last_load {
                    let label = format!("LC{}x{op}", self.tid);
                    self.lines.push(format!("cmpw r{rp},r{rp}"));
                    self.lines.push(format!("beq {label}"));
                    self.lines.push(format!("{label}:"));
                }
                self.lines.push(format!("li r{rc},{k}"));
                self.lines.push(format!("stw r{rc},0(r{loc_reg})"));
            }
            // lwarx/stwcx. read-modify-write pair: load-reserve,
            // derive the stored value from the loaded one (a data
            // dependency through the reservation), store-conditional
            // back to the same location. Both the loaded value and
            // the success/failure branching land in the explored
            // envelope (the location is observed by the harnesses'
            // memory footprint).
            _ => {
                let rd = self.alloc();
                let rt = self.alloc();
                let k = rng.gen_range(1..3u64);
                self.load(rd, format!("lwarx r{rd},r0,r{loc_reg}"));
                self.lines.push(format!("addi r{rt},r{rd},{k}"));
                self.lines.push(format!("stwcx. r{rt},r0,r{loc_reg}"));
            }
        }
    }

    /// A real wrong path: `cmpw; beq L; <op>; L:`, comparing the last
    /// load (a fresh one from `loc_reg` if there is none) with a
    /// constant, so each side of the branch is taken in some execution
    /// and the skipped op is fetched and executed speculatively in
    /// others. The skipped op is one of the shapes of [`ThreadGen::op`]
    /// or, one time in seven, an address-dependent `lwarx` whose
    /// reservation a `stwcx.` after the label may use — the shape whose
    /// wrong-path reservation survives the branch's `Finish`.
    fn wrong_path(&mut self, rng: &mut Prng, loc_reg: u8, op: usize) {
        let rp = match self.last_load {
            Some(rp) => rp,
            None => {
                let rd = self.alloc();
                self.load(rd, format!("lwz r{rd},0(r{loc_reg})"));
                rd
            }
        };
        let rk = self.alloc();
        let label = format!("LW{}x{op}", self.tid);
        self.lines
            .push(format!("li r{rk},{}", rng.gen_range(0..3u64)));
        self.lines.push(format!("cmpw r{rp},r{rk}"));
        self.lines.push(format!("beq {label}"));
        let loc_reg = 1 + rng.gen_range(0..self.nlocs as u8);
        let kind = rng.gen_range(0..14u32);
        if kind < 12 {
            self.op(rng, kind, loc_reg, op + 1);
            self.lines.push(format!("{label}:"));
            return;
        }
        let (rt, rd, rc) = (self.alloc(), self.alloc(), self.alloc());
        self.lines.push(format!("xor r{rt},r{rp},r{rp}"));
        self.load(rd, format!("lwarx r{rd},r{rt},r{loc_reg}"));
        self.lines.push(format!("{label}:"));
        self.lines
            .push(format!("li r{rc},{}", rng.gen_range(1..3u64)));
        self.lines.push(format!("stwcx. r{rc},r0,r{loc_reg}"));
    }
}

/// Whether the generated program contains a reservation pair (for
/// coverage accounting in the fuzz harnesses).
pub fn has_rmw(prog: &GenProgram) -> bool {
    prog.source.contains("lwarx")
}

/// Whether the generated program branches over a wrong path (for
/// coverage accounting in the fuzz harnesses).
pub fn has_wrong_path(prog: &GenProgram) -> bool {
    prog.source.contains("beq LW")
}

/// Parse a `u64` environment knob, accepting `0x…` hex.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => {
            let v = v.trim();
            let parsed = v
                .strip_prefix("0x")
                .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok());
            parsed.unwrap_or_else(|| panic!("{name}: unparseable value `{v}`"))
        }
    }
}
