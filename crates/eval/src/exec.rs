//! IR → machine lowering and concrete execution for the differential
//! oracle.
//!
//! [`Executor::run`] takes the same [`Program`] IR the static analyzer
//! sees, lowers every declared variable onto a fresh
//! [`pnew_runtime::Machine`] address space — globals into the data
//! segment, locals into real stack frames with canaries — and interprets
//! the statements concretely against a scripted attacker input. Ground
//! truth comes back as [`ExecEvent`]s: logical writes whose extent
//! exceeds the owning region (the §3/§4 placement overflows), canaries
//! found smashed on return, secret residue shipped by `output` (§4.3),
//! bytes stranded by size-mismatched or orphaning releases (§4.5), and
//! allocation failures.
//!
//! The interpreter is deliberately total: overflowing writes really land
//! (clamped to the containing segment, so the two-step attack of §4
//! concretely rewrites its own bounds variable), loops are capped,
//! exhausted inputs read as 0, and the few statements the lowering cannot
//! model faithfully (virtual dispatch, calls through pointers, field
//! stores — their layouts live in the object model, not the IR) are
//! recorded as skipped instead of faulting. `docs/pnx-syntax.md` lists
//! the executable subset.
//!
//! Scalars live in machine memory and are re-read at every use, which is
//! the property the oracle exists to exercise: a placement that
//! overflows a checked count variable changes what the next statement
//! computes, exactly as in the paper's Listing 19.

use pnew_memory::{SegmentKind, VirtAddr};
use pnew_object::ClassRegistry;
use pnew_runtime::{ControlOutcome, Machine, MachineBuilder, VarDecl};

use pnew_detector::ir::{CmpOp, Cond, Expr, Op, Program, Scope, Site, Stmt, Ty, VarId};

/// Byte pattern standing in for attacker-controlled content.
pub const ATTACK_BYTE: u8 = 0x41;

/// Byte pattern written by `read_secret`; `output` scans for survivors.
pub const SECRET_BYTE: u8 = 0x53;

/// Longest single concrete write, in bytes. Logical write lengths are
/// unbounded (an attacker-supplied count), but the machine only commits
/// this much past the region so execution stays fast and in-segment.
const MAX_CONCRETE_WRITE: u64 = 4096;

/// Storage for variables whose declared size is unknown
/// (`char buf[]`-style arenas).
const UNSIZED_ARRAY_BYTES: u64 = 64;

/// What one ground-truth event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEventKind {
    /// A logical write extended past the end of its owning region.
    OverflowWrite {
        /// Bytes in the region from its start.
        region_size: u64,
        /// Bytes the statement logically wrote.
        write_len: u64,
        /// Bytes past the region end.
        excess: u64,
    },
    /// The StackGuard canary was found rewritten when a frame returned.
    CanarySmash,
    /// `output` shipped bytes still carrying the secret pattern.
    SecretLeak {
        /// Secret bytes in the shipped window.
        bytes: u64,
    },
    /// Heap bytes stranded by a size-mismatched release or by nulling
    /// the last pointer to a live block.
    StrandedBytes {
        /// Bytes no longer reachable or reusable.
        bytes: u64,
    },
    /// The allocator could not satisfy a request.
    OutOfMemory {
        /// Requested payload size.
        requested: u64,
    },
}

impl ExecEventKind {
    /// Short stable name (used in reports and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            ExecEventKind::OverflowWrite { .. } => "overflow-write",
            ExecEventKind::CanarySmash => "canary-smash",
            ExecEventKind::SecretLeak { .. } => "secret-leak",
            ExecEventKind::StrandedBytes { .. } => "stranded-bytes",
            ExecEventKind::OutOfMemory { .. } => "out-of-memory",
        }
    }

    /// Whether the event is ground truth for a vulnerability (as opposed
    /// to a resource condition like OOM, which the analyzer does not
    /// claim to flag).
    pub fn is_vulnerability(&self) -> bool {
        !matches!(self, ExecEventKind::OutOfMemory { .. })
    }
}

/// One ground-truth event, attributed to the statement that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecEvent {
    /// The statement site (canary smashes are attributed to the last
    /// overflowing write of the smashed frame).
    pub site: Site,
    /// What happened.
    pub kind: ExecEventKind,
}

/// Everything one [`Executor::run`] observed.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Program name.
    pub program: String,
    /// Ground-truth events, deduplicated per `(site, kind-label)`.
    pub events: Vec<ExecEvent>,
    /// Statements the lowering cannot model, with a short reason.
    pub skipped: Vec<(Site, &'static str)>,
    /// Statements interpreted (loop iterations counted individually).
    pub executed: u64,
    /// Whether any loop hit the iteration cap.
    pub loop_capped: bool,
}

/// The concrete interpreter. Each [`run`](Executor::run) lowers the
/// program onto fresh machines (one per entry function, so entries
/// cannot contaminate each other) and returns the union of observations.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Loop iteration cap — overflows that rewrite a loop counter would
    /// otherwise spin forever.
    max_loop_iters: u32,
    /// Call depth cap, mirroring the analyzer's inline depth.
    max_call_depth: u32,
    /// Concrete value bound to tainted integer parameters: large enough
    /// to overflow any corpus arena, small enough to execute instantly.
    hostile_int: i64,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor with the default caps (64 loop iterations, call depth
    /// 8, hostile parameter value 1536).
    pub fn new() -> Self {
        Executor { max_loop_iters: 64, max_call_depth: 8, hostile_int: 1536 }
    }

    /// Executes every function of `program` as an entry point against
    /// the attacker input script `inputs`, and returns the union of
    /// ground-truth observations.
    pub fn run(&self, program: &Program, inputs: &[i64]) -> ExecOutcome {
        let mut out = ExecOutcome { program: program.name.clone(), ..ExecOutcome::default() };
        for fi in 0..program.functions.len() {
            let mut interp = Interp::new(self, program, inputs);
            interp.run_entry(fi);
            out.executed += interp.executed;
            out.loop_capped |= interp.loop_capped;
            for ev in interp.events {
                if !out
                    .events
                    .iter()
                    .any(|e| same_site(&e.site, &ev.site) && e.kind.label() == ev.kind.label())
                {
                    out.events.push(ev);
                }
            }
            for (site, why) in interp.skipped {
                if !out.skipped.iter().any(|(s, w)| same_site(s, &site) && *w == why) {
                    out.skipped.push((site, why));
                }
            }
        }
        out
    }
}

/// Site identity as the analyzer uses it: `(function, ordinal)`.
fn same_site(a: &Site, b: &Site) -> bool {
    a.line == b.line && a.function == b.function
}

/// Per-entry interpreter state: one machine, plus the address/extent
/// table the oracle checks logical writes against.
struct Interp<'p> {
    exec: &'p Executor,
    program: &'p Program,
    machine: Machine,
    /// Current storage address per `VarId` (locals appear while their
    /// frame is live).
    var_addr: Vec<Option<VirtAddr>>,
    /// Declared extent per `VarId` — the bound the paper's programmer
    /// believes in, which is what an overflow is measured against.
    var_declared: Vec<u64>,
    /// Storage actually reserved per `VarId` (scalars get a full word).
    var_lowered: Vec<u64>,
    /// Region bases that have hosted at least one placement — `output`
    /// only counts residue from arenas used as arenas (§4.3).
    tenanted: Vec<VirtAddr>,
    events: Vec<ExecEvent>,
    skipped: Vec<(Site, &'static str)>,
    executed: u64,
    loop_capped: bool,
    last_overflow: Option<Site>,
}

impl<'p> Interp<'p> {
    fn new(exec: &'p Executor, program: &'p Program, inputs: &[i64]) -> Self {
        let mut machine = MachineBuilder::new().seed(0x0c1e_a112).build(ClassRegistry::new());
        machine.input_mut().extend(inputs.iter().copied());

        let nvars = program.vars.len();
        let mut var_addr = vec![None; nvars];
        let mut var_declared = vec![0u64; nvars];
        let mut var_lowered = vec![0u64; nvars];
        for info in &program.vars {
            let vi = info.id.index() as usize;
            let (declared, lowered, align) = size_of_ty(&info.ty, program);
            var_declared[vi] = declared;
            var_lowered[vi] = lowered;
            if matches!(info.scope, Scope::Global) {
                let decl = VarDecl::Buffer { size: lowered as u32, align };
                // A full data segment degrades to an unlowered variable,
                // not a failure: reads see 0, writes go nowhere.
                var_addr[vi] =
                    machine.define_global(&var_name(info.id), decl, SegmentKind::Data).ok();
            }
        }
        // Attacker-controlled buffer that tainted pointer parameters aim
        // at: unterminated attack bytes.
        if let Ok(addr) = machine.define_global(
            "__attack",
            VarDecl::Buffer { size: 1024, align: 4 },
            SegmentKind::Data,
        ) {
            let _ = machine.space_mut().fill(addr, ATTACK_BYTE, 1024);
        }

        Interp {
            exec,
            program,
            machine,
            var_addr,
            var_declared,
            var_lowered,
            tenanted: Vec::new(),
            events: Vec::new(),
            skipped: Vec::new(),
            executed: 0,
            loop_capped: false,
            last_overflow: None,
        }
    }

    /// Runs function `fi` as an entry point: tainted parameters carry
    /// attacker values, untainted ones carry benign zeros (they belong
    /// to a trusted caller — giving them hostile values would "observe"
    /// overflows the analyzer rightly never flags).
    fn run_entry(&mut self, fi: usize) {
        let function = &self.program.functions[fi];
        let args: Vec<i64> = function
            .vars
            .iter()
            .filter_map(|&v| match self.program.var(v).scope {
                Scope::Param { tainted } => Some(if tainted {
                    match self.program.var(v).ty {
                        Ty::Ptr => i64::from(
                            self.machine.global("__attack").unwrap_or(VirtAddr::NULL).value(),
                        ),
                        _ => self.exec.hostile_int,
                    }
                } else {
                    0
                }),
                _ => None,
            })
            .collect();
        self.run_function(fi, &args, 0);
    }

    /// Pushes a frame for function `fi`, binds `args` to its parameters,
    /// interprets the body, and returns through the canary check.
    fn run_function(&mut self, fi: usize, args: &[i64], depth: u32) {
        let function = &self.program.functions[fi];
        let fname = function.name.clone();

        let names: Vec<String> = function.vars.iter().map(|&v| var_name(v)).collect();
        let decls: Vec<(&str, VarDecl)> = function
            .vars
            .iter()
            .zip(&names)
            .map(|(&v, name)| {
                let vi = v.index() as usize;
                (name.as_str(), VarDecl::Buffer { size: self.var_lowered[vi] as u32, align: 4 })
            })
            .collect();
        if self.machine.push_frame(&fname, &decls).is_err() {
            // Stack exhausted (deep recursion): treat like the depth cap.
            return;
        }

        // Map this frame's variables, saving whatever they mapped to
        // before (recursion), and zero their storage: pnx locals are
        // "uninitialized", which the oracle models as all-zeroes so runs
        // are deterministic.
        let saved: Vec<(usize, Option<VirtAddr>)> = function
            .vars
            .iter()
            .zip(&names)
            .map(|(&v, name)| {
                let vi = v.index() as usize;
                let old = self.var_addr[vi];
                let addr = self.machine.local_addr(name).ok();
                if let Some(a) = addr {
                    let _ = self.machine.space_mut().fill(a, 0, self.var_lowered[vi] as u32);
                }
                self.var_addr[vi] = addr;
                (vi, old)
            })
            .collect();

        let mut params = function
            .vars
            .iter()
            .filter(|&&v| matches!(self.program.var(v).scope, Scope::Param { .. }))
            .copied()
            .collect::<Vec<_>>()
            .into_iter();
        for &arg in args {
            match params.next() {
                Some(v) => self.write_scalar(v, arg),
                None => break,
            }
        }

        self.walk(&function.body, depth);

        if let Ok(event) = self.machine.ret() {
            let smashed = event.canary_intact == Some(false)
                || matches!(event.outcome, ControlOutcome::CanaryDetected { .. });
            if smashed {
                if let Some(site) = self.last_overflow.clone() {
                    self.push_event(site, ExecEventKind::CanarySmash);
                }
            }
        }
        for (vi, old) in saved {
            self.var_addr[vi] = old;
        }
    }

    /// Interprets a statement list; `false` means a `return` unwound it.
    fn walk(&mut self, body: &[Stmt], depth: u32) -> bool {
        for stmt in body {
            if !self.step(stmt, depth) {
                return false;
            }
        }
        true
    }

    fn step(&mut self, stmt: &Stmt, depth: u32) -> bool {
        self.executed += 1;
        match stmt {
            Stmt::Assign { dst, src, .. } => {
                let value = self.eval(src);
                self.write_scalar(*dst, value);
            }
            Stmt::ReadInput { dst, .. } => {
                let value = self.machine.cin_int().unwrap_or(0);
                self.write_scalar(*dst, value);
            }
            Stmt::RecvObject { site, dst, class } => {
                let size = self.program.sizeof(class).unwrap_or(16);
                match self.machine.heap_alloc(size as u32) {
                    Ok(addr) => {
                        let _ = self.machine.space_mut().fill(addr, ATTACK_BYTE, size as u32);
                        self.write_scalar(*dst, i64::from(addr.value()));
                    }
                    Err(_) => {
                        self.push_event(
                            site.clone(),
                            ExecEventKind::OutOfMemory { requested: size },
                        );
                        self.write_scalar(*dst, 0);
                    }
                }
            }
            Stmt::HeapNew { site, dst, class, count } => {
                let size = match (class, count) {
                    (Some(c), _) => self.program.sizeof(c).unwrap_or(16),
                    (None, Some(n)) => self.eval(n).clamp(0, 1 << 20) as u64,
                    (None, None) => 16,
                };
                match self.machine.heap_alloc(size.max(1) as u32) {
                    Ok(addr) => self.write_scalar(*dst, i64::from(addr.value())),
                    Err(_) => {
                        self.push_event(
                            site.clone(),
                            ExecEventKind::OutOfMemory { requested: size },
                        );
                        self.write_scalar(*dst, 0);
                    }
                }
            }
            Stmt::PlacementNew { site, dst, arena, class, .. } => {
                let addr = self.eval_addr(arena);
                let placed = self.program.sizeof(class).unwrap_or(8);
                // Object placement runs a constructor: the placed bytes
                // are written (with attacker-ish content), which is what
                // clobbers neighbours and canaries concretely.
                let concrete = self.record_write(site, addr, placed);
                if concrete > 0 {
                    let _ = self.machine.space_mut().fill(addr, ATTACK_BYTE, concrete);
                }
                self.mark_tenanted(addr);
                self.write_scalar(*dst, i64::from(addr.value()));
            }
            Stmt::PlacementNewArray { site, dst, arena, elem_size, count } => {
                let addr = self.eval_addr(arena);
                let n = self.eval(count).max(0) as u64;
                let total = n.saturating_mul(u64::from(*elem_size));
                // Array placement allocates without initializing (§4.3):
                // the extent is claimed — and checked — but no bytes are
                // written, so prior residue survives for `output`.
                self.record_write(site, addr, total);
                self.mark_tenanted(addr);
                self.write_scalar(*dst, i64::from(addr.value()));
            }
            Stmt::Strncpy { site, dst, len, .. } => {
                let addr = self.var_target(*dst);
                let logical = self.eval(len).max(0) as u64;
                let concrete = self.record_write(site, addr, logical);
                if concrete > 0 {
                    // Attacker-shaped source: unterminated, so strncpy
                    // copies the full n bytes (its zero-fill never kicks
                    // in), the §4 worst case.
                    let src = vec![ATTACK_BYTE; concrete as usize];
                    let _ = self.machine.strncpy(addr, &src, concrete);
                }
            }
            Stmt::Memset { site, dst, len } => {
                let addr = self.var_target(*dst);
                let logical = self.eval(len).max(0) as u64;
                let concrete = self.record_write(site, addr, logical);
                if concrete > 0 {
                    let _ = self.machine.memset(addr, 0, concrete);
                }
            }
            Stmt::ReadSecret { dst, .. } => {
                let addr = self.var_target(*dst);
                if let Some((base, size)) = self.region_of(addr) {
                    let _ = self.machine.space_mut().fill(base, SECRET_BYTE, size as u32);
                }
            }
            Stmt::Output { site, src } => {
                let addr = self.var_target(*src);
                if let Some((base, size)) = self.region_of(addr) {
                    if self.tenanted.contains(&base) {
                        let from = u64::from(addr.value()) - u64::from(base.value());
                        let window = size.saturating_sub(from) as u32;
                        if let Ok(bytes) = self.machine.space().read_vec(addr, window) {
                            let leaked = bytes.iter().filter(|&&b| b == SECRET_BYTE).count() as u64;
                            if leaked > 0 {
                                self.push_event(
                                    site.clone(),
                                    ExecEventKind::SecretLeak { bytes: leaked },
                                );
                            }
                        }
                    }
                }
                self.machine.print(format!("output @{addr}"));
            }
            Stmt::Delete { site, ptr, as_class } => {
                let p = VirtAddr::new(self.read_scalar(*ptr) as u32);
                if let Some((start, _)) = self.machine.known_heap_block(p) {
                    let before = self.machine.heap_stats().leaked_bytes;
                    let released = as_class.as_ref().and_then(|c| self.program.sizeof(c));
                    let result = match released {
                        Some(size) => self.machine.heap_free_sized(start, size as u32),
                        None => self.machine.heap_free(start),
                    };
                    let stranded = self.machine.heap_stats().leaked_bytes - before;
                    if result.is_ok() && stranded > 0 {
                        self.push_event(
                            site.clone(),
                            ExecEventKind::StrandedBytes { bytes: stranded },
                        );
                    }
                }
            }
            Stmt::NullAssign { site, ptr } => {
                let p = VirtAddr::new(self.read_scalar(*ptr) as u32);
                if let Some((start, len)) = self.machine.known_heap_block(p) {
                    if !self.other_pointer_into(*ptr, start, len) {
                        self.push_event(
                            site.clone(),
                            ExecEventKind::StrandedBytes { bytes: u64::from(len) },
                        );
                    }
                }
                self.write_scalar(*ptr, 0);
            }
            Stmt::FieldStore { site, .. } => {
                // Field offsets live in the object model, not the IR —
                // lowering them would be a guess, so the store is skipped.
                self.skipped.push((site.clone(), "field-store"));
            }
            Stmt::VirtualCall { site, .. } => {
                self.skipped.push((site.clone(), "virtual-call"));
            }
            Stmt::CallPtr { site, .. } => {
                self.skipped.push((site.clone(), "call-ptr"));
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                let taken = if self.eval_cond(cond) { then_body } else { else_body };
                return self.walk(taken, depth);
            }
            Stmt::While { cond, body, .. } => {
                let mut iters = 0;
                while self.eval_cond(cond) {
                    if iters >= self.exec.max_loop_iters {
                        // An overflow may have rewritten the loop counter
                        // (that is rather the point); cap and move on.
                        self.loop_capped = true;
                        break;
                    }
                    iters += 1;
                    if !self.walk(body, depth) {
                        return false;
                    }
                }
            }
            Stmt::Return { .. } => return false,
            Stmt::Call { site, func, args } => {
                if depth >= self.exec.max_call_depth {
                    self.skipped.push((site.clone(), "call-depth"));
                } else if let Some(fi) = self.program.functions.iter().position(|f| &f.name == func)
                {
                    let values: Vec<i64> = args.iter().map(|a| self.eval(a)).collect();
                    self.run_function(fi, &values, depth + 1);
                } else {
                    self.skipped.push((site.clone(), "unknown-callee"));
                }
            }
        }
        true
    }

    // ----- value plumbing ---------------------------------------------------

    fn push_event(&mut self, site: Site, kind: ExecEventKind) {
        self.events.push(ExecEvent { site, kind });
    }

    /// Registers the region containing `addr` as having hosted a
    /// placement (a prerequisite for residue leaks).
    fn mark_tenanted(&mut self, addr: VirtAddr) {
        if let Some((base, _)) = self.region_of(addr) {
            if !self.tenanted.contains(&base) {
                self.tenanted.push(base);
            }
        }
    }

    /// Bounds-checks a logical write of `len` bytes at `dst` against the
    /// owning region (recording an [`ExecEventKind::OverflowWrite`] on
    /// excess) and returns how many bytes to write concretely: clamped
    /// to the containing segment and [`MAX_CONCRETE_WRITE`].
    fn record_write(&mut self, site: &Site, dst: VirtAddr, len: u64) -> u32 {
        if dst.is_null() || len == 0 {
            return 0;
        }
        if let Some((base, size)) = self.region_of(dst) {
            let remaining = (u64::from(base.value()) + size).saturating_sub(u64::from(dst.value()));
            if len > remaining {
                self.push_event(
                    site.clone(),
                    ExecEventKind::OverflowWrite {
                        region_size: size,
                        write_len: len,
                        excess: len - remaining,
                    },
                );
                self.last_overflow = Some(site.clone());
            }
        }
        let Some(segment) = self.machine.space().segment_containing(dst) else {
            return 0;
        };
        let slack = u64::from(segment.end().value()).saturating_sub(u64::from(dst.value()));
        len.min(slack).min(MAX_CONCRETE_WRITE) as u32
    }

    /// The region `(base, declared_size)` containing `addr`: a declared
    /// variable's extent, a live heap block, or a defined global (in
    /// that order — declared extents are the bounds the program text
    /// promises, which is what overflows are measured against).
    fn region_of(&self, addr: VirtAddr) -> Option<(VirtAddr, u64)> {
        if addr.is_null() {
            return None;
        }
        let a = u64::from(addr.value());
        for info in &self.program.vars {
            let vi = info.id.index() as usize;
            if let Some(base) = self.var_addr[vi] {
                let b = u64::from(base.value());
                if a >= b && a < b + self.var_declared[vi].max(1) {
                    return Some((base, self.var_declared[vi].max(1)));
                }
            }
        }
        if let Some((start, len)) = self.machine.known_heap_block(addr) {
            return Some((start, u64::from(len)));
        }
        if let Some((start, len)) = self.machine.known_global_region(addr) {
            return Some((start, u64::from(len)));
        }
        None
    }

    /// Whether any *other* live pointer variable still aims into
    /// `[start, start+len)` — if not, nulling `except` orphans the block.
    fn other_pointer_into(&self, except: VarId, start: VirtAddr, len: u32) -> bool {
        let lo = u64::from(start.value());
        let hi = lo + u64::from(len);
        self.program.vars.iter().any(|info| {
            info.id != except
                && matches!(info.ty, Ty::Ptr)
                && self.var_addr[info.id.index() as usize].is_some()
                && {
                    let v = self.read_scalar(info.id) as u32;
                    u64::from(v) >= lo && u64::from(v) < hi
                }
        })
    }

    /// Where a variable *points as a write target*: pointers dereference,
    /// arrays/classes/scalars decay to their own storage.
    fn var_target(&self, v: VarId) -> VirtAddr {
        if matches!(self.program.var(v).ty, Ty::Ptr) {
            VirtAddr::new(self.read_scalar(v) as u32)
        } else {
            self.var_addr[v.index() as usize].unwrap_or(VirtAddr::NULL)
        }
    }

    fn read_scalar(&self, v: VarId) -> i64 {
        let Some(addr) = self.var_addr[v.index() as usize] else {
            return 0;
        };
        match self.program.var(v).ty {
            Ty::Ptr => self.machine.space().read_u32(addr).map(i64::from).unwrap_or(0),
            _ => self.machine.space().read_i32(addr).map(i64::from).unwrap_or(0),
        }
    }

    fn write_scalar(&mut self, v: VarId, value: i64) {
        let Some(addr) = self.var_addr[v.index() as usize] else {
            return;
        };
        let _ = match self.program.var(v).ty {
            Ty::Ptr => self.machine.space_mut().write_u32(addr, value as u32),
            _ => self.machine.space_mut().write_i32(addr, value as i32),
        };
    }

    fn eval(&self, expr: &Expr) -> i64 {
        match expr {
            Expr::Const(c) => *c,
            Expr::Var(v) => match self.program.var(*v).ty {
                Ty::Int | Ty::Char | Ty::Double | Ty::Ptr => self.read_scalar(*v),
                // Arrays and class objects decay to their address.
                _ => i64::from(self.var_addr[v.index() as usize].unwrap_or(VirtAddr::NULL).value()),
            },
            Expr::SizeOf(class) => self.program.sizeof(class).unwrap_or(0) as i64,
            Expr::BinOp(op, a, b) => {
                let (a, b) = (self.eval(a), self.eval(b));
                match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                }
            }
            Expr::AddrOf(v) => {
                i64::from(self.var_addr[v.index() as usize].unwrap_or(VirtAddr::NULL).value())
            }
            Expr::Field(v, _) => {
                // The IR has no field layouts; read the object's first
                // word, which is enough for the corpus shapes.
                let addr = self.var_target(*v);
                self.machine.space().read_i32(addr).map(i64::from).unwrap_or(0)
            }
        }
    }

    /// Evaluates an expression as an address (the arena operand of a
    /// placement).
    fn eval_addr(&self, expr: &Expr) -> VirtAddr {
        match expr {
            Expr::AddrOf(v) => self.var_addr[v.index() as usize].unwrap_or(VirtAddr::NULL),
            Expr::Var(v) => self.var_target(*v),
            other => VirtAddr::new(self.eval(other) as u32),
        }
    }

    fn eval_cond(&self, cond: &Cond) -> bool {
        let (l, r) = (self.eval(&cond.lhs), self.eval(&cond.rhs));
        match cond.op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }
}

fn var_name(v: VarId) -> String {
    format!("v{}", v.index())
}

/// `(declared, lowered, align)` sizes for a variable of type `ty`:
/// `declared` is the extent the oracle bounds-checks against, `lowered`
/// the storage actually reserved (scalars get a full word so they can be
/// read and written as machine integers).
fn size_of_ty(ty: &Ty, program: &Program) -> (u64, u64, u32) {
    let declared = ty.declared_size(&program.classes);
    match ty {
        Ty::Int | Ty::Ptr => (4, 4, 4),
        Ty::Char => (1, 4, 4),
        Ty::Double => (8, 8, 4),
        Ty::CharArray(Some(n)) => (u64::from(*n), u64::from(*n).max(1), 4),
        Ty::CharArray(None) => (UNSIZED_ARRAY_BYTES, UNSIZED_ARRAY_BYTES, 4),
        Ty::Class(_) => {
            let size = declared.unwrap_or(16).max(1);
            (size, size, 4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnew_detector::ProgramBuilder;

    fn students(p: &mut ProgramBuilder) {
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
    }

    fn overflow_sites(out: &ExecOutcome) -> Vec<u32> {
        out.events
            .iter()
            .filter(|e| matches!(e.kind, ExecEventKind::OverflowWrite { .. }))
            .map(|e| e.site.line)
            .collect()
    }

    #[test]
    fn oversized_placement_overflows_concretely() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert_eq!(overflow_sites(&out), vec![1]);
        let ev = &out.events[0];
        assert_eq!(
            ev.kind,
            ExecEventKind::OverflowWrite { region_size: 16, write_len: 32, excess: 16 }
        );
    }

    #[test]
    fn fitting_placement_is_quiet() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(out.events.is_empty(), "{:?}", out.events);
    }

    #[test]
    fn guarded_count_is_quiet_under_hostile_input() {
        // The benign-guarded-count shape: hostile input takes the early
        // return, benign input fits.
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("f");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let program = p.build();
        for hostile in [1000, 8, 0, -3] {
            let out = Executor::new().run(&program, &[hostile]);
            assert!(out.events.is_empty(), "input {hostile}: {:?}", out.events);
        }
    }

    #[test]
    fn unguarded_count_overflows_under_hostile_input() {
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(64)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
        f.finish();
        let program = p.build();
        assert!(Executor::new().run(&program, &[3]).events.is_empty());
        assert_eq!(overflow_sites(&Executor::new().run(&program, &[512])), vec![2]);
    }

    #[test]
    fn oversized_stack_placement_smashes_the_canary() {
        // 512 attack bytes over an 8-byte local arena reach the frame's
        // canary; ret() notices.
        let mut p = ProgramBuilder::new("t");
        p.class("Big", 512, None, false);
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(8)));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(pool), "Big");
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(
            out.events.iter().any(|e| e.kind == ExecEventKind::CanarySmash),
            "{:?}",
            out.events
        );
    }

    #[test]
    fn uninitialized_array_placement_leaks_secret_residue() {
        // Listing 21: the array tenant never initializes its bytes, so
        // the secret previously read into the arena ships with it.
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(192)));
        let mut f = p.function("main");
        let user = f.local("user", Ty::Ptr);
        f.read_secret(pool);
        f.placement_new_array(user, Expr::addr_of(pool), 1, Expr::Const(192));
        f.output(user);
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(
            out.events.iter().any(|e| matches!(e.kind, ExecEventKind::SecretLeak { bytes: 192 })),
            "{:?}",
            out.events
        );
    }

    #[test]
    fn sanitized_reuse_does_not_leak() {
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("pool", Ty::CharArray(Some(128)));
        let mut f = p.function("main");
        let user = f.local("user", Ty::Ptr);
        f.read_secret(pool);
        f.memset(pool, Expr::Const(128));
        f.placement_new_array(user, Expr::addr_of(pool), 1, Expr::Const(1));
        f.output(user);
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(out.events.is_empty(), "{:?}", out.events);
    }

    #[test]
    fn sized_release_through_smaller_type_strands_bytes() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        f.heap_new(stud, "GradStudent");
        f.placement_new(st, Expr::Var(stud), "Student");
        f.delete(st, Some("Student"));
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e.kind, ExecEventKind::StrandedBytes { bytes } if bytes > 0)),
            "{:?}",
            out.events
        );
    }

    #[test]
    fn nulling_the_last_pointer_orphans_the_block() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Ptr);
        f.heap_new(stud, "GradStudent");
        f.null_assign(stud);
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(
            out.events.iter().any(|e| matches!(e.kind, ExecEventKind::StrandedBytes { .. })),
            "{:?}",
            out.events
        );
    }

    #[test]
    fn two_step_attack_is_concretely_observable() {
        // Listing 19: the oversized object placement rewrites the
        // adjacent, already-checked variables; re-reading them afterwards
        // yields attacker values. Here the clobbered victim is the
        // pointer the next placement goes through.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        // The overflow event is the ground truth; the clobber is visible
        // in that `st` (declared right after `stud`) was itself filled
        // with attack bytes before the placement result overwrote it.
        assert_eq!(overflow_sites(&out), vec![1]);
    }

    #[test]
    fn runaway_loops_are_capped() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let i = f.local("i", Ty::Int);
        f.assign(i, Expr::Const(0));
        f.while_start(Expr::Var(i), CmpOp::Ge, Expr::Const(0));
        f.assign(i, Expr::Const(1));
        f.end_while();
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        assert!(out.loop_capped);
    }

    #[test]
    fn skipped_statements_are_reported_not_faulted() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.field_store(st, "gpa", Expr::Const(4));
        f.virtual_call(st, "print");
        f.finish();
        let out = Executor::new().run(&p.build(), &[]);
        let reasons: Vec<&str> = out.skipped.iter().map(|(_, r)| *r).collect();
        assert_eq!(reasons, vec!["field-store", "virtual-call"]);
    }

    #[test]
    fn execution_is_deterministic() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let program = p.build();
        let a = Executor::new().run(&program, &[7, 8]);
        let b = Executor::new().run(&program, &[7, 8]);
        assert_eq!(a.events, b.events);
        assert_eq!(a.executed, b.executed);
    }
}
