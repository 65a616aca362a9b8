"""Every public function, class and method of mahlerlab has a caller outside
the tests.

A definition counts as used when it is referenced from `src/`, `scripts/` or
`perfbench/` outside its own body, or is a target of the benchmark tracer's
`SPECS`.  Functions and classes are matched by name: as a name, an attribute
or an imported name.  A method is matched by an attribute read `recv.name`
through the type of its receiver.  That type is resolved from:
- `self`, and parameter annotations;
- dataclass fields and other class-body annotations;
- the attributes a class's methods assign on `self` (its constructor);
- the class a constructor call names, and the return annotation of a
  mahlerlab function or method;
- an enclosing `if isinstance(name, C)` branch.
A read reaches the method that its receiver's class inherits and every
override in the subclasses.  A read whose receiver is a module or a literal
reaches no method; one whose receiver's type stays unknown reaches every
method of that name.
"""
import ast
import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mahlerlab"
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# qualified names that stay without a caller, each with a comment saying why;
# none at present
ALLOWED: set[str] = set()

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
KINDS = FUNCTIONS + (ast.ClassDef,)
SCOPES = KINDS + (ast.Lambda,)
# the type of a module, a literal or a non-mahlerlab annotation: no
# mahlerlab method is reached through it
FOREIGN = "<foreign>"
LITERALS = (ast.Constant, ast.JoinedStr, ast.Dict, ast.List, ast.Set, ast.Tuple,
            ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp)


def _last_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _one(kinds: set):
    return kinds.pop() if len(kinds) == 1 else None


def _local_nodes(body):
    """The nodes of a scope.  A nested scope is yielded with the parts of it
    that the enclosing scope evaluates (decorators, defaults, bases), not
    with its body."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            inner = node.decorator_list + node.bases + [k.value for k in node.keywords]
        elif isinstance(node, SCOPES):
            inner = getattr(node, "decorator_list", []) + node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]
        else:
            inner = list(ast.iter_child_nodes(node))
        stack.extend(reversed(inner))


def _bindings(body) -> dict[str, list]:
    """name -> its bindings in a scope: ("expr", value) for an assignment to
    the name alone, ("annotation", node), ("import", name), ("type", class
    or FOREIGN) for a definition, and ("unknown", None) for any other
    target."""
    bound: dict[str, list] = {}
    plain = set()
    for node in _local_nodes(body):
        found = []
        if isinstance(node, ast.Assign):
            found = [(t.id, ("expr", node.value)) for t in node.targets
                     if isinstance(t, ast.Name)]
            plain |= {id(t) for t in node.targets}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found = [(node.target.id, ("annotation", node.annotation))]
            plain.add(id(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found = [((a.asname or a.name).split(".")[0], ("import", a.name))
                     for a in node.names]
        elif isinstance(node, FUNCTIONS):
            found = [(node.name, ("type", FOREIGN))]
        elif isinstance(node, ast.ClassDef):
            found = [(node.name, ("type", node.name))]
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del))
              and id(node) not in plain):
            found = [(node.id, ("unknown", None))]
        for name, binding in found:
            bound.setdefault(name, []).append(binding)
    return bound


class Package:
    """The classes of mahlerlab (bases, members, annotated fields, return
    annotations, attributes assigned on `self`) and its functions' return
    annotations."""

    def __init__(self, modules):
        self.bases: dict[str, list[str]] = {}
        self.members: dict[str, set[str]] = {}
        self.fields: dict[str, dict[str, ast.expr]] = {}
        self.returns: dict[str, dict[str, ast.expr]] = {}
        self.assigned: dict[str, dict[str, list]] = {}
        self.functions: dict[str, list] = {}
        for tree in modules:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._add_class(node)
                elif isinstance(node, FUNCTIONS):
                    self.functions.setdefault(node.name, []).append(node.returns)

    def _add_class(self, node: ast.ClassDef) -> None:
        assert node.name not in self.bases, f"class name {node.name} is not unique"
        self.bases[node.name] = [_last_name(b) for b in node.bases]
        self.members[node.name] = {m.name for m in node.body if isinstance(m, KINDS)}
        self.fields[node.name] = {s.target.id: s.annotation for s in node.body
                                  if isinstance(s, ast.AnnAssign)
                                  and isinstance(s.target, ast.Name)}
        self.returns[node.name] = {m.name: m.returns for m in node.body
                                   if isinstance(m, FUNCTIONS)}
        assigned = self.assigned[node.name] = {}
        for method in node.body:
            if not isinstance(method, FUNCTIONS) or not method.args.args:
                continue
            this = method.args.args[0].arg
            for stmt in ast.walk(method):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else []
                for t in targets:
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == this):
                        assigned.setdefault(t.attr, []).append((method, stmt.value))

    def mro(self, cls: str) -> list[str]:
        order = [cls]
        for base in self.bases.get(cls, []):
            order += [c for c in self.mro(base) if c not in order]
        return [c for c in order if c in self.bases]

    def dispatch(self, cls: str, name: str) -> set[str]:
        """The classes whose `name` a read through a `cls` receiver reaches."""
        overrides = {c for c in self.bases if cls in self.mro(c) and name in self.members[c]}
        inherited = [c for c in self.mro(cls) if name in self.members[c]]
        return overrides | set(inherited[:1])

    def annotation(self, node) -> str | None:
        """The class an annotation names, FOREIGN for another plain name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _one({self.annotation(side) for side in (node.left, node.right)
                         if not (isinstance(side, ast.Constant) and side.value is None)})
        name = _last_name(node)
        if name is None:
            return None
        return name if name in self.bases else FOREIGN


class Resolver:
    """Receiver types of the attribute reads in a source file."""

    def __init__(self, pkg: Package):
        self.pkg = pkg
        self.reads: list[tuple[int, str, str | None]] = []  # (line, attribute, type)
        self._open: set[tuple[str, str]] = set()
        self._narrow: dict[int, str] = {}

    def run(self, tree: ast.Module) -> list[tuple[int, str, str | None]]:
        self._narrow = self._isinstance_branches(tree)
        self._scope(tree.body, {})
        return self.reads

    def _isinstance_branches(self, tree) -> dict[int, str]:
        """id of a name node -> the class an enclosing `if isinstance(name,
        C)` branch proves it to be, where the branch does not rebind it."""
        narrow = {}
        for node in ast.walk(tree):  # outer branches first, inner ones override
            test = getattr(node, "test", None)
            if not (isinstance(node, (ast.If, ast.IfExp)) and isinstance(test, ast.Call)
                    and _last_name(test.func) == "isinstance" and len(test.args) == 2
                    and isinstance(test.args[0], ast.Name)
                    and _last_name(test.args[1]) in self.pkg.bases):
                continue
            name, cls = test.args[0].id, _last_name(test.args[1])
            branch = node.body if isinstance(node, ast.If) else [node.body]
            uses = [n for part in branch for n in ast.walk(part)
                    if isinstance(n, ast.Name) and n.id == name]
            if all(isinstance(n.ctx, ast.Load) for n in uses):
                narrow.update((id(n), cls) for n in uses)
        return narrow

    def _env(self, body, outer: dict, owner: str | None = None, args=None) -> dict:
        local: dict[str, list] = {}
        if args is not None:
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a]
            for i, a in enumerate(params):
                kind = owner if i == 0 and owner else self.pkg.annotation(a.annotation)
                local[a.arg] = [("type", kind)]
        for name, bindings in _bindings(body).items():
            local[name] = local.get(name, []) + bindings
        return {**outer, **local}

    def _scope(self, body, outer: dict, owner: str | None = None, args=None) -> None:
        env = self._env(body, outer, owner, args)
        for node in _local_nodes(body):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self.reads.append((node.lineno, node.attr, self.type_of(node.value, env)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        static = any(_last_name(d) == "staticmethod"
                                     for d in item.decorator_list)
                        self._scope(item.body, env, None if static else node.name,
                                    item.args)
                self._scope([s for s in node.body if not isinstance(s, FUNCTIONS)], env)
            elif isinstance(node, FUNCTIONS):
                self._scope(node.body, env, None, node.args)
            elif isinstance(node, ast.Lambda):
                self._scope([node.body], env, None, node.args)

    def type_of(self, node, env: dict, seen=frozenset()) -> str | None:
        pkg = self.pkg
        if isinstance(node, LITERALS):
            return FOREIGN
        if isinstance(node, ast.Name):
            if id(node) in self._narrow:
                return self._narrow[id(node)]
            if node.id not in env:
                return node.id if node.id in pkg.bases else None
            if node.id in seen:
                return None
            return _one({self._bound(kind, value, env, seen | {node.id})
                         for kind, value in env[node.id]})
        if isinstance(node, ast.IfExp):
            return _one({self.type_of(side, env, seen) for side in (node.body, node.orelse)})
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                owner = self.type_of(func.value, env, seen)
                if owner in pkg.bases:
                    return self._member(owner, func.attr)
            callee = self.type_of(func, env, seen)
            if callee in pkg.bases:  # a constructor
                return callee
            returns = pkg.functions.get(_last_name(func), [None])
            return _one({pkg.annotation(r) for r in returns})
        if isinstance(node, ast.Attribute):
            owner = self.type_of(node.value, env, seen)
            if owner in pkg.bases:
                return self._field(owner, node.attr)
            if node.attr in pkg.bases:  # a class read from its module
                return node.attr
        return None

    def _bound(self, kind, value, env, seen) -> str | None:
        if kind == "type":
            return value
        if kind == "expr":
            return self.type_of(value, env, seen)
        if kind == "annotation":
            return self.pkg.annotation(value)
        if kind == "import":
            return value if value in self.pkg.bases else FOREIGN
        return None

    def _member(self, cls: str, name: str) -> str | None:
        """Return type of the method `name` a `cls` object calls."""
        for c in self.pkg.mro(cls):
            if name in self.pkg.returns[c]:
                return self.pkg.annotation(self.pkg.returns[c][name])
        return None

    def _field(self, cls: str, name: str) -> str | None:
        """Type of the attribute `name` of a `cls` object."""
        pkg = self.pkg
        for c in pkg.mro(cls):
            if name in pkg.fields[c]:
                return pkg.annotation(pkg.fields[c][name])
            if name in pkg.assigned[c] and (c, name) not in self._open:
                self._open.add((c, name))
                try:
                    return _one({self.type_of(value, self._env(m.body, {}, c, m.args))
                                 for m, value in pkg.assigned[c][name]})
                finally:
                    self._open.discard((c, name))
            if name in pkg.members[c]:
                return None
        return None


def _tracer_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, target) for module, target, _, _ in tracer.SPECS]


def _references(pkg: Package):
    """(file, line, name) of every name, import and attribute, and (file,
    line, attribute, receiver type) of every attribute read, in the
    callers."""
    names, reads = [], []
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.append((path, node.lineno, node.id))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names += [(path, node.lineno, part) for alias in node.names
                              for part in alias.name.split(".")]
            file_reads = Resolver(pkg).run(tree)
            names += [(path, line, attr) for line, attr, _ in file_reads]
            reads += [(path, line, attr, kind) for line, attr, kind in file_reads]
    return names, reads


def _public_definitions() -> list[tuple[str, Path, int, int, str | None, str]]:
    """(qualified name, file, first line, last line, owning class or None,
    name) of the public module-level functions and classes and their public
    methods."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, KINDS) or node.name.startswith("_"):
                continue
            defs.append((f"{path.stem}.{node.name}", path, node.lineno, node.end_lineno,
                         None, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{m.name}", path, m.lineno, m.end_lineno,
                          node.name, m.name)
                         for m in node.body
                         if isinstance(m, KINDS) and not m.name.startswith("_")]
    return defs


def unused_public_names() -> list[str]:
    pkg = Package(ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")))
    names, reads = _references(pkg)
    traced = set()
    for module, target in _tracer_targets():
        owner, _, attr = target.rpartition(".")
        traced.add(owner or attr)
        traced |= {f"{module}.{c}.{attr}" for c in pkg.bases
                   if owner in ("*", c) and attr in pkg.members[c]}
    unused = []
    for qualname, path, first, last, cls, name in _public_definitions():
        def outside(where, line):
            return not (where == path and first <= line <= last)

        if cls is None:
            used = name in traced or any(
                ref == name and outside(where, line) for where, line, ref in names)
        else:
            used = qualname in traced or any(
                attr == name and outside(where, line)
                and (kind is None or kind in pkg.bases and cls in pkg.dispatch(kind, name))
                for where, line, attr, kind in reads)
        if not used:
            unused.append(qualname)
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert sorted(set(unused) - ALLOWED) == [], (
        "public names reached only from tests or from nowhere; delete them, "
        "make them private, or move them into the tests")


def test_allowed_names_exist():
    assert ALLOWED <= {q for q, *_ in _public_definitions()}


def test_reads_reach_the_method_of_their_receivers_class():
    tree = ast.parse(textwrap.dedent("""
        from dataclasses import dataclass

        class Base:
            def run(self): ...
            def stop(self): ...

        class Child(Base):
            def run(self): ...

        class Other:
            def stop(self): ...
            def build(self) -> "Base": ...

        @dataclass
        class Holder:
            other: Other

        class Owner:
            def __init__(self, child: Child):
                self.child = child

        def use(owner: Owner, holder: Holder, values, base: Base):
            owner.child.run()
            holder.other.stop()
            Other().build().run()
            values.stop()
            if isinstance(base, Other):
                base.build()
        """))
    pkg = Package([tree])
    reads = {(attr, kind) for _, attr, kind in Resolver(pkg).run(tree)}
    assert reads == {("child", "Owner"), ("other", "Holder"), ("run", "Child"),
                     ("stop", "Other"), ("build", "Other"), ("run", "Base"), ("stop", None)}
    assert pkg.dispatch("Child", "run") == {"Child"}
    assert pkg.dispatch("Base", "run") == {"Base", "Child"}
    assert pkg.dispatch("Child", "stop") == {"Base"}
    assert pkg.dispatch("Other", "stop") == {"Other"}
