"""The one lowering driver both targets share, and its statement lowerer.

A program lowers the same way for OpenMP offload (:mod:`repro.frontend.lower`)
and for the CUDA baseline (:mod:`repro.frontend.cuda`).  :class:`Lowering`
declares and defines the device functions, binds every kernel's shared
arrays, builds each kernel's ``Function`` shell and lowers statements
through :class:`BodyLowerer`.  A target subclass supplies only the kernel
shape (``_lower_kernel``) and the four hooks the lowerer calls:

* ``omp_query(b, what)``: an OpenMP API query (``OmpCall``);
* ``barrier(b)``: a ``BarrierStmt``;
* ``emit_assert(b, cond, message)``: an ``AssertStmt``;
* ``local_array(b, decl)``: an addressable local array, returned as its
  pointer and an optional cleanup emitter run before every return.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.memory.addrspace import AddressSpace
from repro.memory.layout import DATA_LAYOUT
from repro.ir.builder import IRBuilder
from repro.ir.module import Function, Module
from repro.ir.types import (
    ArrayType,
    F64,
    FloatType,
    FunctionType,
    I1,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
)
from repro.ir.values import Constant, GlobalVariable, Value
from repro.frontend import ast as A
from repro.frontend.abi import KernelABI


class LoweringError(Exception):
    """Malformed DSL input."""


_MATH_NAMES = {"sqrt", "exp", "log", "sin", "cos", "fabs", "floor", "pow", "fmin", "fmax"}

_CMP_INT = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
_CMP_FLOAT = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}
_BIN_INT = {
    "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr",
}
_BIN_FLOAT = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}


def struct_param_type(kernel_name: str, param: A.StructParam) -> StructType:
    return StructType(f"{kernel_name}.{param.name}", tuple(param.fields))


class Lowering:
    """Lowers one DSL program into one module; subclasses add the target's
    hooks and ``_lower_kernel`` (see the module docstring)."""

    def __init__(self, program: A.Program, module_name: str) -> None:
        self.program = program
        self.module = Module(module_name)
        self.device_functions: Dict[str, Function] = {}
        self.struct_types: Dict[str, StructType] = {}
        self.abis: Dict[str, KernelABI] = {}
        self.readonly = compute_readonly_params(program)

    def lower(self) -> Tuple[Module, Dict[str, KernelABI]]:
        """Declare every device function (so calls may recurse), define
        them, then lower each kernel."""
        for df in self.program.device_functions:
            names = [p.name for p in df.params]
            func = Function(df.name, FunctionType(df.ret_ty, tuple(p.ty for p in df.params)),
                            linkage="internal", arg_names=names)
            apply_param_attrs(func, names, self.readonly.get(df.name, set()))
            self.device_functions[df.name] = self.module.add_function(func)
        for df in self.program.device_functions:
            func = self.device_functions[df.name]
            b = IRBuilder(self.module, func.add_block("entry"))
            lowerer = self.body_lowerer(
                b, {p.name: ("value", arg) for p, arg in zip(df.params, func.args)})
            lowerer.stmts(df.body)
            if not lowerer.terminated():
                if df.ret_ty != VOID:
                    raise LoweringError(f"device function {df.name} may fall off its end")
                b.ret()
        for kernel in self.program.kernels:
            self._lower_kernel(kernel)
        return self.module, self.abis

    def body_lowerer(self, builder: IRBuilder, env: Dict[str, Tuple]) -> "BodyLowerer":
        """A lowerer over *env* plus every kernel's shared arrays (names
        already bound in *env* win)."""
        for kernel in self.program.kernels:
            for decl in kernel.shared:
                gv = self.shared_array(kernel, decl)
                env.setdefault(decl.name, ("shared", gv, decl))
        return BodyLowerer(self, builder, env)

    def shared_array(self, kernel: A.KernelDef, decl: A.SharedArray) -> GlobalVariable:
        """The team-shared global behind *kernel*'s array *decl*."""
        name = f"{kernel.name}.{decl.name}"
        gv = self.module.globals.get(name)
        if gv is None:
            gv = self.module.add_global(GlobalVariable(
                name, ArrayType(decl.elem_ty, decl.count), addrspace=AddressSpace.SHARED))
        return gv

    def kernel_function(self, kernel: A.KernelDef, param_types: Sequence[Type],
                        param_names: Sequence[str]) -> Function:
        """Add *kernel*'s entry point: external, ``kernel``-attributed,
        pointer parameters ``noalias`` (and ``readonly`` where never
        written)."""
        func = Function(kernel.name, FunctionType(VOID, tuple(param_types)),
                        linkage="external", arg_names=list(param_names))
        func.attrs.add("kernel")
        apply_param_attrs(func, param_names, self.readonly.get(kernel.name, set()))
        return self.module.add_function(func)


class BodyLowerer:
    """Lowers DSL statements into IR at a builder's insertion point,
    calling *target*'s hooks for the constructs that differ per target."""

    def __init__(self, target: Lowering, builder: IRBuilder, env: Dict[str, Tuple]) -> None:
        self.target = target
        self.b = builder
        self.env = env
        self.cleanups: List[Callable[[IRBuilder], None]] = []

    # ------------------------------------------------------------- utilities --

    @property
    def function(self) -> Function:
        return self.b.function

    def alloca_in_entry(self, ty: Type, name: str) -> Value:
        from repro.ir.instructions import Alloca

        entry = self.function.entry
        inst = Alloca(ty, name)
        entry.insert(entry.first_non_phi_index(), inst)
        return inst

    def terminated(self) -> bool:
        block = self.b.block
        return block is not None and block.terminator is not None

    def coerce(self, value: Value, ty: Type) -> Value:
        if value.type == ty:
            return value
        if isinstance(value, Constant):
            if isinstance(ty, (IntType, FloatType)):
                return Constant(ty, value.value)
        if isinstance(value.type, IntType) and isinstance(ty, IntType):
            if value.type.bits < ty.bits:
                return self.b.sext(value, ty)
            return self.b.trunc(value, ty)
        if isinstance(value.type, IntType) and isinstance(ty, FloatType):
            return self.b.sitofp(value, ty)
        if isinstance(value.type, FloatType) and isinstance(ty, IntType):
            return self.b.fptosi(value, ty)
        if isinstance(value.type, FloatType) and isinstance(ty, FloatType):
            op = "fpext" if value.type.bits < ty.bits else "fptrunc"
            return self.b.cast(op, value, ty)
        if isinstance(value.type, PointerType) and isinstance(ty, PointerType):
            return value
        raise LoweringError(f"cannot coerce {value.type} to {ty}")

    def _unify(self, lhs: Value, rhs: Value) -> Tuple[Value, Value]:
        if lhs.type == rhs.type:
            return lhs, rhs
        # Constants adopt the other side's type.
        if isinstance(rhs, Constant) and isinstance(lhs.type, (IntType, FloatType)):
            return lhs, Constant(lhs.type, rhs.value)
        if isinstance(lhs, Constant) and isinstance(rhs.type, (IntType, FloatType)):
            return Constant(rhs.type, lhs.value), rhs
        lt, rt = lhs.type, rhs.type
        if isinstance(lt, IntType) and isinstance(rt, IntType):
            ty = lt if lt.bits >= rt.bits else rt
            return self.coerce(lhs, ty), self.coerce(rhs, ty)
        if isinstance(lt, FloatType) and isinstance(rt, IntType):
            return lhs, self.coerce(rhs, lt)
        if isinstance(lt, IntType) and isinstance(rt, FloatType):
            return self.coerce(lhs, rt), rhs
        if isinstance(lt, FloatType) and isinstance(rt, FloatType):
            ty = lt if lt.bits >= rt.bits else rt
            return self.coerce(lhs, ty), self.coerce(rhs, ty)
        raise LoweringError(f"incompatible operand types {lt} and {rt}")

    # ------------------------------------------------------------ expressions --

    def expr(self, node) -> Value:
        if not isinstance(node, A.Expr):
            node = A._wrap(node)  # bare Python numbers in node fields
        if isinstance(node, A.Const):
            return Constant(node.ty, node.value)
        if isinstance(node, A.Arg):
            return self._read_name(node.name)
        if isinstance(node, A.Var):
            return self._read_name(node.name)
        if isinstance(node, A.Bin):
            lhs, rhs = self._unify(self.expr(node.lhs), self.expr(node.rhs))
            if isinstance(lhs.type, FloatType):
                op = _BIN_FLOAT.get(node.op)
            else:
                op = _BIN_INT.get(node.op)
            if op is None:
                raise LoweringError(f"operator {node.op} not valid for {lhs.type}")
            return self.b._binop(op, lhs, rhs, "")
        if isinstance(node, A.Cmp):
            lhs, rhs = self._unify(self.expr(node.lhs), self.expr(node.rhs))
            if isinstance(lhs.type, FloatType):
                return self.b.fcmp(_CMP_FLOAT[node.op], lhs, rhs)
            return self.b.icmp(_CMP_INT[node.op], lhs, rhs)
        if isinstance(node, A.Not):
            v = self.expr(node.operand)
            if v.type != I1:
                raise LoweringError("Not() requires a boolean operand")
            return self.b.xor(v, Constant(I1, 1))
        if isinstance(node, A.SelectExpr):
            cond = self.expr(node.cond)
            a, b_ = self._unify(self.expr(node.if_true), self.expr(node.if_false))
            return self.b.select(cond, a, b_)
        if isinstance(node, A.CastTo):
            return self.coerce(self.expr(node.operand), node.ty)
        if isinstance(node, A.Index):
            base = self.expr(node.base)
            idx = self.coerce(self.expr(node.index), I64)
            addr = self.b.array_gep(base, node.elem_ty, idx)
            return self.b.load(node.elem_ty, addr)
        if isinstance(node, A.Field):
            return self._read_field(node.param, node.field_name)
        if isinstance(node, A.SharedRef):
            binding = self.env.get(node.name)
            if binding is None or binding[0] != "shared":
                raise LoweringError(f"unknown shared array {node.name}")
            return binding[1]
        if isinstance(node, A.LocalRef):
            binding = self.env.get(node.name)
            if binding is None or binding[0] != "local_array":
                raise LoweringError(f"unknown local array {node.name}")
            return binding[1]
        if isinstance(node, A.MathCall):
            if node.name not in _MATH_NAMES:
                raise LoweringError(f"unknown math function {node.name}")
            args = [self.coerce(self.expr(a), F64) for a in node.args]
            return self.b.intrinsic(f"llvm.{node.name}.f64", args)
        if isinstance(node, A.OmpCall):
            return self.target.omp_query(self.b, node.what)
        if isinstance(node, A.FuncCall):
            func = self.target.device_functions.get(node.name)
            if func is None:
                raise LoweringError(f"unknown device function {node.name}")
            args = [
                self.coerce(self.expr(a), p.type)
                for a, p in zip(node.args, func.args)
            ]
            if len(args) != len(func.args):
                raise LoweringError(f"arity mismatch calling {node.name}")
            return self.b.call(func, args)
        raise LoweringError(f"cannot lower expression {node!r}")

    def _read_name(self, name: str) -> Value:
        binding = self.env.get(name)
        if binding is None:
            raise LoweringError(f"unknown name {name!r}")
        kind = binding[0]
        if kind == "value":
            return binding[1]
        if kind == "slot":
            return self.b.load(binding[2], binding[1], name)
        if kind in ("shared", "local_array"):
            return binding[1]
        raise LoweringError(f"{name!r} is not a readable value")

    def _read_field(self, param: str, field_name: str) -> Value:
        binding = self.env.get(param)
        if binding is None:
            raise LoweringError(f"unknown struct parameter {param!r}")
        kind = binding[0]
        if kind == "struct_ref":
            ptr, sty = binding[1], binding[2]
            offset = DATA_LAYOUT.field_offset(sty, field_name)
            return self.b.load(sty.field_type(field_name), self.b.ptradd(ptr, offset))
        if kind == "struct_vals":
            return binding[1][field_name]
        raise LoweringError(f"{param!r} is not a struct parameter")

    # -------------------------------------------------------------- statements --

    def stmts(self, body: Sequence[A.Stmt]) -> None:
        for stmt in body:
            if self.terminated():
                return  # unreachable code after return
            self.stmt(stmt)

    def stmt(self, node: A.Stmt) -> None:
        b = self.b
        if isinstance(node, A.Let):
            init = self.expr(node.init)
            ty = node.ty or init.type
            slot = self.alloca_in_entry(ty, node.name)
            b.store(self.coerce(init, ty), slot)
            self.env[node.name] = ("slot", slot, ty)
            return
        if isinstance(node, A.Assign):
            binding = self.env.get(node.name)
            if binding is None or binding[0] != "slot":
                raise LoweringError(f"cannot assign to {node.name!r}")
            _, slot, ty = binding
            b.store(self.coerce(self.expr(node.value), ty), slot)
            return
        if isinstance(node, A.StoreIdx):
            base = self.expr(node.base)
            idx = self.coerce(self.expr(node.index), I64)
            addr = b.array_gep(base, node.elem_ty, idx)
            b.store(self.coerce(self.expr(node.value), node.elem_ty), addr)
            return
        if isinstance(node, A.Atomic):
            base = self.expr(node.base)
            idx = self.coerce(self.expr(node.index), I64)
            addr = b.array_gep(base, node.elem_ty, idx)
            b.atomic_rmw(node.op, addr, self.coerce(self.expr(node.value), node.elem_ty))
            return
        if isinstance(node, A.If):
            self._lower_if(node)
            return
        if isinstance(node, A.While):
            self._lower_while(node)
            return
        if isinstance(node, A.ForRange):
            self._lower_for(node)
            return
        if isinstance(node, A.CallStmt):
            self.expr(node.call)
            return
        if isinstance(node, A.ReturnStmt):
            value = None
            if node.value is not None:
                value = self.coerce(self.expr(node.value), self.function.return_type)
            for cleanup in reversed(self.cleanups):
                cleanup(b)
            b.ret(value)
            return
        if isinstance(node, A.DeclLocalArray):
            ptr, cleanup = self.target.local_array(b, node)
            self.env[node.name] = ("local_array", ptr, node)
            if cleanup is not None:
                self.cleanups.append(cleanup)
            return
        if isinstance(node, A.BarrierStmt):
            self.target.barrier(b)
            return
        if isinstance(node, A.AssertStmt):
            self.target.emit_assert(b, self.expr(node.cond), node.message)
            return
        if isinstance(node, A.AssumeStmt):
            b.assume(self.expr(node.cond))
            return
        raise LoweringError(f"cannot lower statement {node!r}")

    def _lower_if(self, node: A.If) -> None:
        b = self.b
        cond = self.expr(node.cond)
        func = self.function
        then_block = func.add_block("if.then")
        merge_block = func.add_block("if.end")
        else_block = func.add_block("if.else") if node.els else merge_block
        b.cond_br(cond, then_block, else_block)

        b.set_insert_point(then_block)
        self.stmts(node.then)
        if not self.terminated():
            b.br(merge_block)
        if node.els:
            b.set_insert_point(else_block)
            self.stmts(node.els)
            if not self.terminated():
                b.br(merge_block)
        b.set_insert_point(merge_block)

    def _lower_while(self, node: A.While) -> None:
        b = self.b
        func = self.function
        header = func.add_block("while.header")
        body = func.add_block("while.body")
        exit_block = func.add_block("while.end")
        b.br(header)
        b.set_insert_point(header)
        b.cond_br(self.expr(node.cond), body, exit_block)
        b.set_insert_point(body)
        self.stmts(node.body)
        if not self.terminated():
            b.br(header)
        b.set_insert_point(exit_block)

    def _lower_for(self, node: A.ForRange) -> None:
        b = self.b
        func = self.function
        start = self.coerce(self.expr(node.start), I64)
        stop = self.coerce(self.expr(node.stop), I64)
        step = self.coerce(self.expr(node.step), I64)
        slot = self.alloca_in_entry(I64, node.var)
        b.store(start, slot)
        outer_binding = self.env.get(node.var)
        self.env[node.var] = ("slot", slot, I64)

        header = func.add_block(f"for.{node.var}.header")
        body = func.add_block(f"for.{node.var}.body")
        exit_block = func.add_block(f"for.{node.var}.end")
        b.br(header)
        b.set_insert_point(header)
        iv = b.load(I64, slot, node.var)
        b.cond_br(b.icmp("slt", iv, stop), body, exit_block)
        b.set_insert_point(body)
        self.stmts(node.body)
        if not self.terminated():
            iv2 = b.load(I64, slot, node.var)
            b.store(b.add(iv2, step), slot)
            b.br(header)
        b.set_insert_point(exit_block)

        if outer_binding is not None:
            self.env[node.var] = outer_binding
        else:
            del self.env[node.var]


# ----------------------------------------------------------- param attributes --


_NODE_TYPES = (A.Expr, A.Stmt)


def _nodes(node, out: list) -> list:
    """Append *node* and every expression/statement below it to *out*."""
    out.append(node)
    for value in vars(node).values():
        if isinstance(value, _NODE_TYPES):
            _nodes(value, out)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, _NODE_TYPES):
                    _nodes(item, out)
    return out


def _arg_names(expr) -> set:
    return {n.name for n in _nodes(expr, []) if isinstance(n, A.Arg)}


def compute_readonly_params(program: "A.Program") -> Dict[str, set]:
    """Per kernel/device-function: pointer params never written in the
    call subtree.  These become ``readonly noalias`` IR parameter
    attributes, enabling redundant-load elimination and loop-invariant
    hoisting of by-reference aggregate fields (paper §VII)."""
    units: Dict[str, Tuple] = {}
    for kernel in program.kernels:
        stmts = tuple(kernel.preamble) + tuple(kernel.body)
        units[kernel.name] = (tuple(p.name for p in kernel.params), stmts)
    for df in program.device_functions:
        units[df.name] = (tuple(p.name for p in df.params), df.body)

    written: Dict[str, set] = {}
    call_sites: Dict[str, List[A.FuncCall]] = {}
    for name, (_, stmts) in units.items():
        nodes: list = []
        for stmt in stmts:
            _nodes(stmt, nodes)
        written[name] = w = set()
        call_sites[name] = calls = []
        for node in nodes:
            if isinstance(node, A.FuncCall):
                calls.append(node)
            elif isinstance(node, (A.StoreIdx, A.Atomic)):
                w |= _arg_names(node.base)

    changed = True
    while changed:
        changed = False
        for name, calls in call_sites.items():
            for call in calls:
                callee = units.get(call.name)
                if callee is None:
                    continue
                for arg_expr, pname in zip(call.args, callee[0]):
                    if pname in written[call.name]:
                        roots = _arg_names(arg_expr)
                        if roots - written[name]:
                            written[name] |= roots
                            changed = True

    return {name: {p for p in params if p not in written[name]}
            for name, (params, _) in units.items()}


def apply_param_attrs(func, param_names, readonly: set) -> None:
    """Mark pointer parameters ``noalias`` (distinct map-clause buffers)
    and ``readonly`` when the program never writes through them."""
    for i, name in enumerate(param_names):
        if i >= len(func.args):
            break
        if not isinstance(func.args[i].type, PointerType):
            continue
        attrs = func.param_attrs.setdefault(i, set())
        attrs.add("noalias")
        if name in readonly:
            attrs.add("readonly")
