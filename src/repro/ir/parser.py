"""Parser for the textual IR form emitted by :mod:`repro.ir.printer`.

Round-trips with the printer (``parse(print(m))`` is structurally
identical to ``m``), which gives the test-suite textual fixtures and
users a way to inspect/edit IR offline.

The accepted grammar is exactly the printer's output language: named
struct types, globals with zero/raw/element initializers, declarations
and definitions with attributes and ``assumes("...")`` clauses, and the
full instruction set.  Values may be referenced before their defining
instruction is parsed (phis); a fix-up pass patches the placeholders.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.memory.addrspace import AddressSpace
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BINOPS,
    BinOp,
    Br,
    CAST_OPS,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    ArrayType,
    F32,
    F64,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    pointer_to,
)
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value


class ParseError(Exception):
    """Malformed textual IR."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


_SCALARS = {
    "void": VOID, "i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64,
    "float": F32, "double": F64,
}

_TOKEN_RE = re.compile(r"""
    \s*(
        "(?:[^"\\]|\\.)*"              # quoted string
      | \[|\]|\{|\}|\(|\)|,|=|\*      # punctuation
      | [^\s\[\]{}(),=]+               # atom
    )
""", re.VERBOSE)


def _tokenize(text: str) -> List[str]:
    return [m.group(1) for m in _TOKEN_RE.finditer(text)]


class _Placeholder(UndefValue):
    """Forward reference to a not-yet-parsed local value."""

    __slots__ = ("ref_name",)

    def __init__(self, ty: Type, ref_name: str) -> None:
        super().__init__(ty)
        self.ref_name = ref_name


class Parser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0
        name = "parsed"
        for line in self.lines:
            header = re.match(r";\s*module\s+(\S+)", line.strip())
            if header:
                name = header.group(1)
                break
            if line.strip():
                break
        self.module = Module(name)

    # ------------------------------------------------------------- line utils --

    def _next_significant(self) -> Optional[Tuple[int, str]]:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            stripped = line.strip()
            if not stripped or stripped.startswith(";"):
                continue
            return self.pos, line
        return None

    def _error(self, message: str, line: str) -> ParseError:
        return ParseError(message, self.pos, line)

    # ------------------------------------------------------------------ types --

    def _parse_type(self, tokens: List[str], i: int) -> Tuple[Type, int]:
        tok = tokens[i]
        if tok in _SCALARS:
            return _SCALARS[tok], i + 1
        if tok == "ptr":
            if i + 1 < len(tokens) and tokens[i + 1].startswith("addrspace"):
                # "addrspace" "(" N ")"
                space = AddressSpace(int(tokens[i + 3]))
                return pointer_to(space), i + 5
            return pointer_to(AddressSpace.GENERIC), i + 1
        if tok == "[":
            count = int(tokens[i + 1])
            assert tokens[i + 2] == "x"
            elem, j = self._parse_type(tokens, i + 3)
            assert tokens[j] == "]"
            return ArrayType(elem, count), j + 1
        if tok.startswith("%"):
            name = tok[1:]
            sty = self.module.struct_types.get(name)
            if sty is None:
                raise ParseError(f"unknown struct type %{name}", self.pos, tok)
            return sty, i + 1
        raise ParseError(f"unknown type token {tok!r}", self.pos, tok)

    def parse_type_str(self, text: str) -> Type:
        ty, _ = self._parse_type(_tokenize(text), 0)
        return ty

    # --------------------------------------------------------------- top level --

    def parse(self) -> Module:
        # Phase A: register every symbol (struct types, globals, function
        # signatures) so bodies can reference functions defined later.
        pending: List[Tuple[Function, List[str]]] = []
        while True:
            item = self._next_significant()
            if item is None:
                break
            _, line = item
            stripped = line.strip()
            if stripped.startswith("%") and "= type" in stripped:
                self._parse_struct_type(stripped)
            elif stripped.startswith("@"):
                self._parse_global(stripped)
            elif stripped.startswith("declare"):
                self._parse_declare(stripped)
            elif stripped.startswith("define"):
                func = self._parse_define_header(line)
                body: List[str] = []
                while True:
                    inner = self._next_significant()
                    if inner is None:
                        raise self._error("unterminated function body", line)
                    _, body_line = inner
                    if body_line.strip() == "}":
                        break
                    body.append(body_line)
                pending.append((func, body))
            else:
                raise self._error("unexpected top-level construct", line)
        # Phase B: parse the bodies.
        for func, body in pending:
            self._parse_body(func, body)
        return self.module

    def _parse_struct_type(self, line: str) -> None:
        name = line.split("=", 1)[0].strip()[1:]
        inner = line[line.index("{") + 1 : line.rindex("}")].strip()
        fields: List[Tuple[str, Type]] = []
        if inner:
            depth = 0
            parts, cur = [], ""
            for ch in inner:
                if ch in "[{":
                    depth += 1
                elif ch in "]}":
                    depth -= 1
                if ch == "," and depth == 0:
                    parts.append(cur)
                    cur = ""
                else:
                    cur += ch
            parts.append(cur)
            for part in parts:
                tokens = _tokenize(part.strip())
                fty, j = self._parse_type(tokens, 0)
                fname = tokens[j]
                fields.append((fname, fty))
        self.module.add_struct_type(StructType(name, tuple(fields)))

    def _parse_global(self, line: str) -> None:
        m = re.match(
            r"@(?P<name>\S+)\s*=\s*(?P<linkage>internal|external|weak)\s+"
            r"addrspace\((?P<space>\d+)\)\s+(?P<kind>global|constant)\s+"
            r"(?P<rest>.*)$",
            line,
        )
        if m is None:
            raise self._error("malformed global", line)
        rest = m.group("rest").strip()
        tokens = _tokenize(rest)
        value_type, j = self._parse_type(tokens, 0)
        init_text = " ".join(tokens[j:])
        initializer = None
        if init_text.startswith("raw["):
            raise self._error(
                "raw global initializers are not textual-roundtrip-able", line
            )
        if init_text and init_text != "zeroinitializer":
            inner = init_text.strip()
            assert inner.startswith("[") and inner.endswith("]")
            elems = [e.strip() for e in inner[1:-1].split(",") if e.strip()]
            elem_ty = value_type.element if isinstance(value_type, ArrayType) else value_type
            initializer = [self._parse_scalar_constant(e, elem_ty) for e in elems]
        gv = GlobalVariable(
            m.group("name"),
            value_type,
            addrspace=AddressSpace(int(m.group("space"))),
            initializer=initializer,
            linkage=m.group("linkage"),
            is_constant=m.group("kind") == "constant",
        )
        self.module.add_global(gv)

    @staticmethod
    def _parse_scalar_constant(text: str, ty: Type) -> Constant:
        if text == "null":
            return Constant(ty, 0)
        if isinstance(ty, (IntType, PointerType)):
            return Constant(ty, int(text))
        return Constant(ty, float(text))

    def _parse_signature(self, line: str, keyword: str):
        m = re.match(
            rf"{keyword}\s+(?:(?P<linkage>internal|weak)\s+)?"
            r"(?P<ret>.+?)\s+@(?P<name>[^\s(]+)\(",
            line.strip(),
        )
        if m is None:
            raise self._error(f"malformed {keyword}", line)
        ret = self.parse_type_str(m.group("ret"))
        # Scan the parameter list with balanced parentheses (address
        # spaces nest parens inside the list).
        stripped = line.strip()
        open_idx = m.end() - 1
        depth = 0
        close_idx = None
        for k in range(open_idx, len(stripped)):
            if stripped[k] == "(":
                depth += 1
            elif stripped[k] == ")":
                depth -= 1
                if depth == 0:
                    close_idx = k
                    break
        if close_idx is None:
            raise self._error("unbalanced parameter list", line)
        ptext = stripped[open_idx + 1 : close_idx].strip()
        extra = stripped[close_idx + 1 :]

        params: List[Type] = []
        names: List[str] = []
        if ptext:
            depth = 0
            parts, cur = [], ""
            for ch in ptext:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                if ch == "," and depth == 0:
                    parts.append(cur)
                    cur = ""
                else:
                    cur += ch
            parts.append(cur)
            for part in parts:
                tokens = _tokenize(part.strip())
                pty, j = self._parse_type(tokens, 0)
                params.append(pty)
                if j < len(tokens) and tokens[j].startswith("%"):
                    names.append(tokens[j][1:])
                else:
                    names.append(f"arg{len(names)}")
        assumptions = set()
        am = re.search(r'assumes\("([^"]*)"\)', extra)
        if am:
            assumptions = {a for a in am.group(1).split(",") if a}
            extra = extra[: am.start()] + extra[am.end():]
        attrs = {t for t in extra.replace("{", " ").split() if t}
        return (m.group("name"), ret, params, names, attrs, assumptions,
                m.group("linkage"))

    def _parse_declare(self, line: str) -> None:
        name, ret, params, names, attrs, assumptions, _linkage = self._parse_signature(
            line, "declare")
        func = self.module.declare(name, FunctionType(ret, tuple(params)))
        func.attrs |= attrs
        func.assumptions |= assumptions
        for arg, arg_name in zip(func.args, names):
            arg.name = arg_name

    # ---------------------------------------------------------------- functions --

    def _parse_define_header(self, line: str) -> Function:
        name, ret, params, names, attrs, assumptions, linkage = self._parse_signature(
            line, "define")
        func = Function(name, FunctionType(ret, tuple(params)),
                        linkage=linkage or "external", arg_names=names)
        func.attrs |= attrs
        func.assumptions |= assumptions
        self.module.add_function(func)
        return func

    def _parse_body(self, func: Function, body: List[str]) -> None:
        # Pass 1: create blocks.
        blocks: Dict[str, BasicBlock] = {}
        current: Optional[BasicBlock] = None
        grouped: List[Tuple[BasicBlock, List[str]]] = []
        for body_line in body:
            stripped = body_line.strip()
            if stripped.endswith(":") and not body_line.startswith("  "):
                block = func.add_block(stripped[:-1])
                blocks[block.name] = block
                current = block
                grouped.append((block, []))
            else:
                if current is None:
                    raise self._error("instruction before first label", body_line)
                grouped[-1][1].append(stripped)

        # Pass 2: parse instructions with placeholders.
        values: Dict[str, Value] = {f"%{a.name}": a for a in func.args}
        fixups: List[Tuple[Instruction, int, str]] = []
        phi_fixups: List[Tuple[Phi, List[Tuple[str, str]]]] = []
        for block, lines in grouped:
            for text in lines:
                inst, name_ = self._parse_instruction(
                    text, blocks, values, fixups, phi_fixups)
                block.append(inst)
                if name_ is not None:
                    values[name_] = inst

        # Pass 3: patch forward references.
        for inst, index, ref in fixups:
            target = values.get(ref)
            if target is None:
                raise self._error(f"undefined value {ref}", ref)
            inst.set_operand(index, target)
        for phi, incoming in phi_fixups:
            for vref, bref in incoming:
                value = self._resolve_operand(vref, phi.type, values, strict=True)
                phi.add_incoming(value, blocks[bref])

    # -------------------------------------------------------------- instructions --

    def _resolve_operand(self, tok: str, ty: Type, values: Dict[str, Value],
                         strict: bool = False) -> Value:
        if tok.startswith("%"):
            value = values.get(tok)
            if value is None:
                if strict:
                    raise ParseError(f"undefined value {tok}", self.pos, tok)
                return _Placeholder(ty, tok)
            return value
        if tok.startswith("@"):
            name = tok[1:]
            if name in self.module.globals:
                return self.module.get_global(name)
            if name in self.module.functions:
                return self.module.get_function(name)
            raise ParseError(f"undefined symbol {tok}", self.pos, tok)
        if tok == "undef":
            return UndefValue(ty)
        if tok == "null":
            return Constant(ty if isinstance(ty, PointerType) else pointer_to(AddressSpace.GENERIC), 0)
        if isinstance(ty, (IntType, PointerType)):
            return Constant(ty, int(tok))
        return Constant(ty, float(tok))

    def _parse_instruction(self, text: str, blocks, values, fixups, phi_fixups):
        name: Optional[str] = None
        if re.match(r"%\S+\s*=", text):
            name, text = [p.strip() for p in text.split("=", 1)]
        tokens = _tokenize(text)
        op = tokens[0]

        def operand(tok: str, ty: Type) -> Value:
            return self._resolve_operand(tok, ty, values)

        def finish(inst: Instruction) -> Tuple[Instruction, Optional[str]]:
            for index, op_value in enumerate(inst.operands):
                if isinstance(op_value, _Placeholder):
                    fixups.append((inst, index, op_value.ref_name))
            if name is not None:
                inst.name = name[1:]
            return inst, name

        if op == "load":
            i = 1
            volatile = tokens[i] == "volatile"
            if volatile:
                i += 1
            ty, j = self._parse_type(tokens, i)
            assert tokens[j] == ","
            ptr = operand(tokens[j + 1], pointer_to(AddressSpace.GENERIC))
            return finish(Load(ty, ptr, volatile=volatile))

        if op == "store":
            i = 1
            volatile = tokens[i] == "volatile"
            if volatile:
                i += 1
            ty, j = self._parse_type(tokens, i)
            value = operand(tokens[j], ty)
            assert tokens[j + 1] == ","
            ptr = operand(tokens[j + 2], pointer_to(AddressSpace.GENERIC))
            return finish(Store(value, ptr, volatile=volatile))

        if op == "alloca":
            ty, _ = self._parse_type(tokens, 1)
            return finish(Alloca(ty))

        if op == "ptradd":
            ptr = operand(tokens[1], pointer_to(AddressSpace.GENERIC))
            assert tokens[2] == ","
            offset = operand(tokens[3], I64)
            return finish(PtrAdd(ptr, offset))

        if op == "icmp" or op == "fcmp":
            pred = tokens[1]
            ty, j = self._parse_type(tokens, 2)
            lhs = operand(tokens[j], ty)
            assert tokens[j + 1] == ","
            rhs = operand(tokens[j + 2], ty)
            cls = ICmp if op == "icmp" else FCmp
            return finish(cls(pred, lhs, rhs))

        if op == "select":
            cond = operand(tokens[1], I1)
            assert tokens[2] == ","
            ty, j = self._parse_type(tokens, 3)
            a = operand(tokens[j], ty)
            assert tokens[j + 1] == ","
            b = operand(tokens[j + 2], ty)
            return finish(Select(cond, a, b))

        if op in CAST_OPS:
            src_ty, j = self._parse_type(tokens, 1)
            src = operand(tokens[j], src_ty)
            assert tokens[j + 1] == "to"
            dst_ty, _ = self._parse_type(tokens, j + 2)
            return finish(Cast(op, src, dst_ty))

        if op == "phi":
            ty, j = self._parse_type(tokens, 1)
            phi = Phi(ty)
            incoming: List[Tuple[str, str]] = []
            while j < len(tokens) and tokens[j] in ("[", ","):
                if tokens[j] == ",":
                    j += 1
                    continue
                vref = tokens[j + 1]
                assert tokens[j + 2] == ","
                bref = tokens[j + 3][1:]  # strip %
                assert tokens[j + 4] == "]"
                incoming.append((vref, bref))
                j += 5
            phi_fixups.append((phi, incoming))
            if name is not None:
                phi.name = name[1:]
            return phi, name

        if op == "br":
            if tokens[1] == "label":
                return finish(Br(blocks[tokens[2][1:]]))
            cond = operand(tokens[1], I1)
            t = blocks[tokens[4][1:]]
            f = blocks[tokens[7][1:]]
            return finish(CondBr(cond, t, f))

        if op == "ret":
            if tokens[1] == "void":
                return finish(Ret())
            ty, j = self._parse_type(tokens, 1)
            return finish(Ret(operand(tokens[j], ty)))

        if op == "unreachable":
            return finish(Unreachable())

        if op == "call":
            ret_ty, j = self._parse_type(tokens, 1)
            callee_tok = tokens[j]
            callee = operand(callee_tok, pointer_to(AddressSpace.GENERIC))
            assert tokens[j + 1] == "("
            args: List[Value] = []
            k = j + 2
            while tokens[k] != ")":
                if tokens[k] == ",":
                    k += 1
                    continue
                aty, k = self._parse_type(tokens, k)
                args.append(operand(tokens[k], aty))
                k += 1
            return finish(Call(callee, args, ret_ty))

        if op == "atomicrmw":
            operation = tokens[1]
            ptr = operand(tokens[2], pointer_to(AddressSpace.GENERIC))
            assert tokens[3] == ","
            ty, j = self._parse_type(tokens, 4)
            value = operand(tokens[j], ty)
            return finish(AtomicRMW(operation, ptr, value))

        if op in BINOPS:
            ty, j = self._parse_type(tokens, 1)
            lhs = operand(tokens[j], ty)
            assert tokens[j + 1] == ","
            rhs = operand(tokens[j + 2], ty)
            return finish(BinOp(op, lhs, rhs))

        raise self._error(f"unknown instruction {op!r}", text)


def parse_module(text: str) -> Module:
    """Parse textual IR into a fresh module."""
    return Parser(text).parse()
