//! A small C++-like intermediate representation.
//!
//! The detector does not parse C++; corpus programs are written directly
//! in this IR, which keeps exactly the constructs the paper's
//! vulnerability patterns need: variables with declared types, placement
//! and heap `new`, tainted input sources (`cin`, received objects),
//! `strncpy`/`memset`, deletes, pointer calls, and structured control
//! flow. Every statement carries a [`Site`] so findings are addressable.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a variable (globals and locals share one namespace per
/// program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An interned name: a dense index into a [`SymbolTable`].
///
/// The analyzer's hot path compares and copies class/function names
/// constantly; interning turns those `String` clones and hash-of-string
/// lookups into `u32` copies. Symbols are only meaningful together with
/// the table that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A string interner mapping names to dense [`Symbol`]s.
///
/// # Examples
///
/// ```
/// use pnew_detector::ir::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let a = table.intern("Student");
/// let b = table.intern("GradStudent");
/// assert_eq!(table.intern("Student"), a); // stable on re-intern
/// assert_ne!(a, b);
/// assert_eq!(table.resolve(a), "Student");
/// assert_eq!(table.lookup("GradStudent"), Some(b));
/// assert_eq!(table.lookup("Nope"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `name`, returning its stable symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&i) = self.index.get(name) {
            return Symbol(i);
        }
        let i = u32::try_from(self.names.len()).expect("fewer than 2^32 symbols");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        Symbol(i)
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).map(|&i| Symbol(i))
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol came from a different table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Declared type of a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// `int`.
    Int,
    /// `char`.
    Char,
    /// `double`.
    Double,
    /// Any pointer.
    Ptr,
    /// `char buf[n]` with a statically known or unknown length.
    CharArray(Option<u32>),
    /// An instance of a named class.
    Class(String),
}

impl Ty {
    /// Statically known byte size of the declared storage, if any.
    pub fn declared_size(&self, classes: &HashMap<String, ClassInfo>) -> Option<u64> {
        match self {
            Ty::Int => Some(4),
            Ty::Char => Some(1),
            Ty::Double => Some(8),
            Ty::Ptr => Some(4),
            Ty::CharArray(Some(n)) => Some(u64::from(*n)),
            Ty::CharArray(None) => None,
            Ty::Class(name) => classes.get(name).map(|c| u64::from(c.size)),
        }
    }
}

/// What the analyzer knows about a class (sizes come from the object
/// model's layout engine, matching the paper's advice to use `sizeof`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// Class name.
    pub name: String,
    /// `sizeof` under the target layout policy.
    pub size: u32,
    /// Direct base class, if any.
    pub base: Option<String>,
    /// Whether instances carry vtable pointers.
    pub polymorphic: bool,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Variable read.
    Var(VarId),
    /// `sizeof(Class)`.
    SizeOf(String),
    /// Arithmetic.
    BinOp(Op, Box<Expr>, Box<Expr>),
    /// `&var` — the address of a declared variable (the usual placement
    /// arena).
    AddrOf(VarId),
    /// `obj.field` / `obj->field` load (fields are opaque to the
    /// analyzer beyond taint).
    Field(VarId, String),
}

impl Expr {
    /// Shorthand for `&var`.
    pub fn addr_of(var: VarId) -> Expr {
        Expr::AddrOf(var)
    }

    /// Shorthand for `a * b`.
    ///
    /// Free-standing constructor (not `std::ops::Mul`): these build AST
    /// nodes, they do not evaluate.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::BinOp(Op::Mul, Box::new(a), Box::new(b))
    }

    /// Shorthand for `a + b`.
    ///
    /// Free-standing constructor (not `std::ops::Add`): these build AST
    /// nodes, they do not evaluate.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::BinOp(Op::Add, Box::new(a), Box::new(b))
    }

    /// Shorthand for `a - b`.
    ///
    /// Free-standing constructor (not `std::ops::Sub`): these build AST
    /// nodes, they do not evaluate.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::BinOp(Op::Sub, Box::new(a), Box::new(b))
    }

    /// Variables read by this expression.
    pub fn reads(&self) -> Vec<VarId> {
        let mut r = Vec::new();
        self.for_each_read(&mut |v| r.push(v));
        r
    }

    /// Visits every variable read by this expression without allocating.
    ///
    /// The analyzer's taint checks run once per assignment per program;
    /// this is the allocation-free form of [`Expr::reads`] for that hot
    /// path.
    pub fn for_each_read(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) | Expr::SizeOf(_) => {}
            Expr::Var(v) | Expr::AddrOf(v) | Expr::Field(v, _) => f(*v),
            Expr::BinOp(_, a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
        }
    }
}

/// Comparison operators in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The comparison with its operands swapped: `a op b` holds exactly
    /// when `b op.flipped() a` does.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// The comparison's logical negation: `!(a op b)` holds exactly
    /// when `a op.negated() b` does.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

/// A branch/loop condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left operand.
    pub lhs: Expr,
    /// Comparison.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Expr,
}

/// A precise source span: 1-based line and column of the first token of
/// a construct, plus the byte range it covers in the original source.
///
/// Builder-made programs have no source text, so spans only exist on
/// sites that came through [`parse_program`](crate::parse_program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// 1-based source line of the first token.
    pub line: u32,
    /// 1-based column (in characters) of the first token.
    pub col: u32,
    /// Byte offset of the first token in the source.
    pub byte_offset: u32,
    /// Byte length from the first to the last token, inclusive.
    pub len: u32,
}

impl Span {
    /// A span at `line`/`col` covering `len` bytes from `byte_offset`.
    pub fn new(line: u32, col: u32, byte_offset: u32, len: u32) -> Self {
        Span { line, col, byte_offset, len }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A source location: function name plus a statement ordinal assigned by
/// the builder, and — for parsed programs — the precise [`Span`].
///
/// Identity is `(function, line)` only: the span is carried for
/// reporting, and two sites naming the same statement compare equal
/// whether or not source positions are known. This keeps the round-trip
/// guarantee `parse(pretty(p)) == p` and finding dedup stable across
/// builder-made and parsed programs.
#[derive(Debug, Clone)]
pub struct Site {
    /// Enclosing function.
    pub function: String,
    /// 1-based statement ordinal within the function.
    pub line: u32,
    /// Precise source span, when the site came from parsed text.
    pub span: Option<Span>,
}

impl Site {
    /// A site without source text (builder programs).
    pub fn new(function: impl Into<String>, line: u32) -> Self {
        Site { function: function.into(), line, span: None }
    }
}

impl PartialEq for Site {
    fn eq(&self, other: &Self) -> bool {
        self.function == other.function && self.line == other.line
    }
}

impl Eq for Site {}

impl std::hash::Hash for Site {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.function.hash(state);
        self.line.hash(state);
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.function, self.line)
    }
}

/// Statements. Each carries its [`Site`].
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = src;`
    Assign {
        /// Statement site.
        site: Site,
        /// Destination variable.
        dst: VarId,
        /// Source expression.
        src: Expr,
    },
    /// `obj.field = src;`
    FieldStore {
        /// Statement site.
        site: Site,
        /// Object written through.
        obj: VarId,
        /// Field name.
        field: String,
        /// Stored expression.
        src: Expr,
    },
    /// `cin >> dst;` — a taint source.
    ReadInput {
        /// Statement site.
        site: Site,
        /// Destination variable.
        dst: VarId,
    },
    /// `dst = service.recv<Class>();` — a remote/serialized object
    /// (taint source, §3.2).
    RecvObject {
        /// Statement site.
        site: Site,
        /// Destination (pointer) variable.
        dst: VarId,
        /// Claimed class.
        class: String,
    },
    /// `dst = new Class()` / `dst = new char[count]`.
    HeapNew {
        /// Statement site.
        site: Site,
        /// Destination pointer.
        dst: VarId,
        /// Allocated class (object form).
        class: Option<String>,
        /// Element count (array form; element size 1).
        count: Option<Expr>,
    },
    /// `dst = new (arena) Class(args…);`
    PlacementNew {
        /// Statement site.
        site: Site,
        /// Destination pointer.
        dst: VarId,
        /// Arena address expression.
        arena: Expr,
        /// Placed class.
        class: String,
        /// Constructor arguments (copy-constructor sources carry taint,
        /// §3.2).
        args: Vec<Expr>,
    },
    /// `dst = new (arena) char[count * elem_size];`
    PlacementNewArray {
        /// Statement site.
        site: Site,
        /// Destination pointer.
        dst: VarId,
        /// Arena address expression.
        arena: Expr,
        /// Element size in bytes.
        elem_size: u32,
        /// Element count expression.
        count: Expr,
    },
    /// `strncpy(dst, src, len);`
    Strncpy {
        /// Statement site.
        site: Site,
        /// Destination pointer/array variable.
        dst: VarId,
        /// Source expression (tainted when from input).
        src: Expr,
        /// Copy length expression.
        len: Expr,
    },
    /// `memset(dst, 0, len);` — the §5.1 sanitization.
    Memset {
        /// Statement site.
        site: Site,
        /// Destination pointer/array variable.
        dst: VarId,
        /// Fill length expression.
        len: Expr,
    },
    /// Read a file/secret into a buffer (`mmap`, `read`) — marks the
    /// region as holding sensitive bytes.
    ReadSecret {
        /// Statement site.
        site: Site,
        /// Destination pointer/array variable.
        dst: VarId,
    },
    /// Ship a buffer to the outside world (`store`, `send`).
    Output {
        /// Statement site.
        site: Site,
        /// Source pointer/array variable.
        src: VarId,
    },
    /// `delete ptr;` optionally through a static type (`delete (Class*)p`).
    Delete {
        /// Statement site.
        site: Site,
        /// Pointer being deleted.
        ptr: VarId,
        /// The static class the delete is typed with.
        as_class: Option<String>,
    },
    /// `ptr = NULL;`
    NullAssign {
        /// Statement site.
        site: Site,
        /// Pointer being nulled.
        ptr: VarId,
    },
    /// `obj->virtualMethod()`.
    VirtualCall {
        /// Statement site.
        site: Site,
        /// Receiver.
        obj: VarId,
        /// Method name.
        method: String,
    },
    /// Call through a function pointer.
    CallPtr {
        /// Statement site.
        site: Site,
        /// The pointer variable.
        ptr: VarId,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Statement site.
        site: Site,
        /// Condition.
        cond: Cond,
        /// Then-branch body.
        then_body: Vec<Stmt>,
        /// Else-branch body.
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While {
        /// Statement site.
        site: Site,
        /// Condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return;`
    Return {
        /// Statement site.
        site: Site,
    },
    /// `call f(args…);` — a direct call to another function in the
    /// program (the §3.3 inter-procedural data-flow path).
    Call {
        /// Statement site.
        site: Site,
        /// Callee name.
        func: String,
        /// Actual arguments, bound to the callee's parameters in order.
        args: Vec<Expr>,
    },
}

impl Stmt {
    /// The statement's site.
    pub fn site(&self) -> &Site {
        match self {
            Stmt::Assign { site, .. }
            | Stmt::FieldStore { site, .. }
            | Stmt::ReadInput { site, .. }
            | Stmt::RecvObject { site, .. }
            | Stmt::HeapNew { site, .. }
            | Stmt::PlacementNew { site, .. }
            | Stmt::PlacementNewArray { site, .. }
            | Stmt::Strncpy { site, .. }
            | Stmt::Memset { site, .. }
            | Stmt::ReadSecret { site, .. }
            | Stmt::Output { site, .. }
            | Stmt::Delete { site, .. }
            | Stmt::NullAssign { site, .. }
            | Stmt::VirtualCall { site, .. }
            | Stmt::CallPtr { site, .. }
            | Stmt::If { site, .. }
            | Stmt::While { site, .. }
            | Stmt::Call { site, .. }
            | Stmt::Return { site } => site,
        }
    }
}

/// Scope of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Global (data/bss).
    Global,
    /// Function local (stack).
    Local,
    /// Function parameter; `tainted` parameters model network/remote
    /// inputs.
    Param {
        /// Whether the parameter carries untrusted data.
        tainted: bool,
    },
}

/// A declared variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Identifier.
    pub id: VarId,
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Scope.
    pub scope: Scope,
}

/// A function: parameters and locals (by id) plus a statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Ids of parameters and locals belonging to this function.
    pub vars: Vec<VarId>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole program: class table, variables, functions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program name (corpus id).
    pub name: String,
    /// Known classes.
    pub classes: HashMap<String, ClassInfo>,
    /// All variables (globals first).
    pub vars: Vec<VarInfo>,
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// `sizeof` a class, if known.
    pub fn sizeof(&self, class: &str) -> Option<u64> {
        self.classes.get(class).map(|c| u64::from(c.size))
    }

    /// Total number of statements (recursively), used by throughput
    /// benches.
    pub fn stmt_count(&self) -> usize {
        fn count(body: &[Stmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    Stmt::If { then_body, else_body, .. } => {
                        1 + count(then_body) + count(else_body)
                    }
                    Stmt::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_sizes() {
        let mut classes = HashMap::new();
        classes.insert(
            "Student".to_owned(),
            ClassInfo { name: "Student".into(), size: 16, base: None, polymorphic: false },
        );
        assert_eq!(Ty::Int.declared_size(&classes), Some(4));
        assert_eq!(Ty::CharArray(Some(72)).declared_size(&classes), Some(72));
        assert_eq!(Ty::CharArray(None).declared_size(&classes), None);
        assert_eq!(Ty::Class("Student".into()).declared_size(&classes), Some(16));
        assert_eq!(Ty::Class("Nope".into()).declared_size(&classes), None);
    }

    #[test]
    fn expr_reads() {
        let e = Expr::mul(Expr::Var(VarId(1)), Expr::add(Expr::Const(1), Expr::Var(VarId(2))));
        assert_eq!(e.reads(), vec![VarId(1), VarId(2)]);
        assert!(Expr::SizeOf("X".into()).reads().is_empty());
    }

    #[test]
    fn site_display() {
        let s = Site::new("addStudent", 3);
        assert_eq!(s.to_string(), "addStudent:3");
    }

    #[test]
    fn site_identity_ignores_the_span() {
        let bare = Site::new("f", 1);
        let mut spanned = Site::new("f", 1);
        spanned.span = Some(Span::new(7, 5, 104, 30));
        assert_eq!(bare, spanned);
        let hash = |s: &Site| {
            use std::hash::{Hash as _, Hasher as _};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&bare), hash(&spanned));
        assert_eq!(spanned.span.expect("span kept").to_string(), "7:5");
    }
}
