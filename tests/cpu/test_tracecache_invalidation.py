"""Gating test: every mutating Program API invalidates the trace cache.

The decoded-block trace cache trusts ``Program.version``: it only
recompiles when the counter moves.  That trust is sound only if every
method that writes Program state is decorated with ``@_mutator`` (which
registers the name in ``MUTATING_APIS`` and bumps ``version``).  This
test enforces the contract two ways:

* statically — AST introspection over ``repro/isa/program.py`` finds
  every method of ``Program`` that assigns to or mutates ``self`` state
  and requires it to be registered;
* dynamically — calling each registered mutator on a live Program must
  bump ``version`` exactly once, and the program's shared block dict
  must drop its decoded blocks afterwards.
"""

import ast
import inspect

from repro.cpu.tracecache import blocks
from repro.isa import program as program_module
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

from tests.conftest import counting_loop, entry_block

# Methods allowed to write self state without being mutators: dataclass
# construction (runs before any cache can hold a reference).
_CONSTRUCTION = {"__post_init__", "__init__"}

# self attributes whose mutation cannot change decoded instructions.
_CACHE_IRRELEVANT = {"version"}


def _self_writes(func_node):
    """Names of ``self`` attributes a method assigns to or mutates."""
    writes = set()

    class Visitor(ast.NodeVisitor):
        def _note(self, target):
            # self.attr = ..., self.attr[i] = ..., self.attr[:] = ...
            node = target
            while isinstance(node, ast.Subscript):
                node = node.value
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                writes.add(node.attr)

        def visit_Assign(self, node):
            for target in node.targets:
                self._note(target)
            self.generic_visit(node)

        def visit_AugAssign(self, node):
            self._note(node.target)
            self.generic_visit(node)

        def visit_Call(self, node):
            # self.attr.mutating_method(...) — any method call on a self
            # attribute is conservatively treated as a write (append,
            # update, clear, setdefault, ...), except read-only names.
            func = node.func
            read_only = {"get", "items", "keys", "values", "index",
                         "count", "copy"}
            if (isinstance(func, ast.Attribute)
                    and func.attr not in read_only
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"):
                writes.add(func.value.attr)
            self.generic_visit(node)

    Visitor().visit(func_node)
    return writes


def _program_methods():
    tree = ast.parse(inspect.getsource(program_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Program":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item
            return
    raise AssertionError("class Program not found")


class TestStaticContract:
    def test_every_self_writing_method_is_registered(self):
        registered = set(Program.MUTATING_APIS)
        offenders = {}
        for method in _program_methods():
            if method.name in _CONSTRUCTION:
                continue
            writes = _self_writes(method) - _CACHE_IRRELEVANT
            if writes and method.name not in registered:
                offenders[method.name] = sorted(writes)
        assert not offenders, (
            "Program methods mutate self state without @_mutator "
            "registration (the trace cache would go stale): %r"
            % offenders)

    def test_registered_mutators_exist_and_are_wrapped(self):
        for name in Program.MUTATING_APIS:
            method = getattr(Program, name)
            # functools.wraps preserves the name; the closure holds the
            # original function — enough to prove the decorator is on.
            assert method.__name__ == name
            assert method.__wrapped__ is not None


class TestDynamicContract:
    def _call_with_benign_args(self, program, name):
        nop = Instruction(op=Opcode.NOP, dest=None, src1=None, src2=None,
                          imm=0)
        calls = {
            "note_mutation": lambda: program.note_mutation(),
            "patch": lambda: program.patch(program.entry, nop),
            "replace_instructions": lambda: program.replace_instructions(
                list(program.instructions)),
            "add_label": lambda: program.add_label("gate-test",
                                                   program.entry),
        }
        assert name in calls, (
            "new mutator %r: teach this test how to invoke it" % name)
        calls[name]()

    def test_every_mutator_bumps_version_and_drops_cache(self):
        for name in Program.MUTATING_APIS:
            program = counting_loop(iterations=3)
            block = entry_block(program)
            before = program.version
            self._call_with_benign_args(program, name)
            assert program.version == before + 1, name
            assert program.entry not in blocks(program), name
            assert entry_block(program) is not block, name

    def test_mutator_raising_still_invalidates(self, tiny_program):
        block = entry_block(tiny_program)
        try:
            tiny_program.patch(-4, None)
        except Exception:
            pass
        assert entry_block(tiny_program) is not block
