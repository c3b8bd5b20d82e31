"""Family 3 — observer-purity.

Replay observers (``ReplayObserver`` implementations) share one outcome
stream: many observers see the same request/outcome objects, and the cluster
or policy they were constructed around keeps serving the replay loop.  An
observer may *read* anything it was handed but may only ever *write* its own
state — and if it accumulates per-chunk state, it must implement ``merge``
so segmented replays (``jobs=N``) rejoin into one run's accounting.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lintkit.core import (
    FileContext,
    LintConfig,
    Project,
    ProjectRule,
    Violation,
    dotted_name,
)

__all__ = ["ObserverMergeRequiredRule", "ObserverParamMutationRule"]

_OBSERVER_BASE = "ReplayObserver"


def observer_classes(project: Project) -> list[tuple[FileContext, ast.ClassDef]]:
    found = []
    for (module, name), (ctx, cls) in sorted(project.classes.items()):
        if name == _OBSERVER_BASE:
            continue
        if project.is_subclass_of(ctx, cls, _OBSERVER_BASE):
            found.append((ctx, cls))
    return found


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class ObserverParamMutationRule(ProjectRule):
    """Observers never assign to attributes of anything they were handed —
    not the policy/cluster they observe, not requests, not outcomes."""

    rule_id = "observer-param-mutation"
    summary = "observers assign only to self; never to policy/request/outcome"

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in observer_classes(project):
            for name, fn in _methods(cls).items():
                params = {
                    a.arg
                    for a in (
                        fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                    )
                    if a.arg not in ("self", "cls")
                }
                if fn.args.vararg:
                    params.add(fn.args.vararg.arg)
                if fn.args.kwarg:
                    params.add(fn.args.kwarg.arg)
                if not params:
                    continue
                yield from self._check_stores(ctx, cls, fn, params)

    def _check_stores(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        params: set[str],
    ) -> Iterator[Violation]:
        # ``merge(other)`` absorbing a same-type observer may not write to it
        # either: the segment observer is reused by the engine's fold.
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain == "setattr" and node.args:
                    root = _root_name(node.args[0])
                    if root in params:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.{fn.name}` mutates parameter "
                            f"`{root}` via setattr(); observers write only "
                            "their own state",
                        )
                continue
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in params:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"`{cls.name}.{fn.name}` assigns to "
                            f"`{ast.unparse(target)}`, an attribute of a "
                            "parameter; observers write only their own state",
                        )


class ObserverMergeRequiredRule(ProjectRule):
    """An observer that accumulates state in ``on_outcome``/``on_chunk``/
    ``on_batch``/``on_chunk_end`` must define ``merge`` (itself or via a
    concrete repo base), or ``jobs=N`` replays silently drop its segments."""

    rule_id = "observer-merge-required"
    summary = "stateful observers implement merge() for segmented replays"

    _EVENT_METHODS = ("on_outcome", "on_chunk", "on_batch", "on_chunk_end")

    def check_project(
        self, project: Project, config: LintConfig
    ) -> Iterator[Violation]:
        for ctx, cls in observer_classes(project):
            if not self._accumulates(cls):
                continue
            lineage = project.class_lineage(ctx, cls)
            # An inherited abstract merge does not count; a concrete one does.
            for _, ancestor in lineage:
                merge = _methods(ancestor).get("merge")
                if merge is not None and not _is_abstract_method(merge):
                    break
            else:
                yield ctx.violation(
                    cls,
                    self.rule_id,
                    f"observer `{cls.name}` accumulates per-chunk state but "
                    "implements no merge(); jobs=N replays would drop its "
                    "segments",
                )

    def _accumulates(self, cls: ast.ClassDef) -> bool:
        _MUTATORS = {
            "append",
            "extend",
            "add",
            "update",
            "setdefault",
            "insert",
            "pop",
            "popleft",
            "appendleft",
        }
        for name, fn in _methods(cls).items():
            if name not in self._EVENT_METHODS:
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if _root_name(target) == "self" and not isinstance(
                            target, ast.Name
                        ):
                            return True
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if (
                        node.func.attr in _MUTATORS
                        and _root_name(node.func.value) == "self"
                    ):
                        return True
        return False


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_abstract_method(fn: ast.FunctionDef) -> bool:
    return any(
        (dotted_name(deco) or "").endswith("abstractmethod")
        for deco in fn.decorator_list
    )
