"""Composite scores and inheritance schemes.

Two standardized measures combine as (a + b) / sigma_s(a + b); a set combines
flat as sum / sigma_s(sum).  An inheritance scheme is a strictly binary tree
over the first-generation measure names whose internal nodes are abstract
higher-generation measures; different schemes agree at the root up to small
statistical fluctuations driven by the sibling sigma_s estimates.

Display heights divide each node's values by the product of the sigma_s
normalizers on its path to the root, which makes sibling heights sum exactly
to the parent's height per graph node.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .measures import AXES
from .standardize import StandardizedMeasure


class SchemeError(ValueError):
    """Malformed inheritance scheme or scheme/measure mismatch."""


class DegenerateCombinationError(ValueError):
    """Combination has zero variance (e.g. a measure combined with its negation)."""


@dataclass(frozen=True)
class SchemeNode:
    name: str
    children: tuple["SchemeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _preorder(node: SchemeNode) -> Iterator[SchemeNode]:
    yield node
    for child in node.children:
        yield from _preorder(child)


@dataclass(frozen=True)
class InheritanceScheme:
    """Strictly binary combination tree; leaves name first-generation measures."""

    root: SchemeNode
    scheme_id: str = "custom"

    def __post_init__(self) -> None:
        nodes = list(_preorder(self.root))
        for node in nodes:
            if not node.is_leaf and len(node.children) != 2:
                raise SchemeError(f"internal node {node.name!r} must have exactly 2 children")
        leaves = [node.name for node in nodes if node.is_leaf]
        if len(set(leaves)) != len(leaves):
            raise SchemeError("every leaf must be used exactly once")
        if len({node.name for node in nodes}) != len(nodes):
            raise SchemeError("scheme node names must be unique")

    def leaves(self) -> tuple[str, ...]:
        return tuple(node.name for node in _preorder(self.root) if node.is_leaf)

    def check_leaves(self, names: Sequence[str]) -> None:
        """Reject a measure set whose names are not exactly this scheme's leaves."""
        leaves = self.leaves()
        missing = [n for n in leaves if n not in names]
        extra = [n for n in names if n not in leaves]
        if missing or extra:
            raise SchemeError(f"scheme/measure mismatch: missing {missing}, unused {extra}")

    def rename_leaf(self, old: str, new: str) -> "InheritanceScheme":
        """Same tree with one leaf renamed (used by the alternative measure set)."""
        if old not in self.leaves():
            raise SchemeError(f"no leaf named {old!r}")

        def walk(node: SchemeNode) -> SchemeNode:
            if node.is_leaf:
                return SchemeNode(new) if node.name == old else node
            return SchemeNode(node.name, tuple(walk(c) for c in node.children))

        return InheritanceScheme(walk(self.root), scheme_id=self.scheme_id)


@dataclass(frozen=True)
class GenerationScore:
    """One tree node's standardized values plus its display heights."""

    name: str
    generation: int
    values: np.ndarray
    display_heights: np.ndarray


@dataclass(frozen=True)
class GenerationScores:
    """Per-node scores of one scheme run, root generation first, preorder within each."""

    scheme_id: str
    nodes: tuple[GenerationScore, ...]

    def root(self) -> GenerationScore:
        return self.nodes[0]

    def __getitem__(self, name: str) -> GenerationScore:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def generations(self) -> list[int]:
        return sorted({node.generation for node in self.nodes}, reverse=True)

    def by_generation(self, generation: int) -> list[GenerationScore]:
        return [node for node in self.nodes if node.generation == generation]


def combine(a: StandardizedMeasure, b: StandardizedMeasure) -> StandardizedMeasure:
    """Combine two standardized measures, named "a+b": (a + b) / sigma_s(a + b)."""
    name = f"{a.name}+{b.name}"
    values, _ = _combine(name, [a.values, b.values])
    return StandardizedMeasure(name, values)


def combine_set(measures: Sequence[StandardizedMeasure]) -> StandardizedMeasure:
    """Flat composite "COMPOSITE" of a measure set: sum / sigma_s(sum), no intermediate steps."""
    if len(measures) < 2:
        raise ValueError("need at least 2 measures to combine")
    values, _ = _combine("COMPOSITE", [m.values for m in measures])
    return StandardizedMeasure("COMPOSITE", values)


def _combine(name: str, parts: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """(sum / sigma_s(sum), sigma_s(sum)) of equal-length parts; ``name`` labels errors.

    The sum runs left to right, so a pair combines as exactly ``a + b``.
    """
    if len({p.shape for p in parts}) != 1:
        raise ValueError("measures must have equal length")
    s = functools.reduce(operator.add, parts)
    sd = float(s.std(ddof=1))
    if sd == 0.0:
        raise DegenerateCombinationError(f"combination at {name!r} is degenerate")
    return s / sd, sd


def run_scheme(scheme: InheritanceScheme,
               g1: Sequence[StandardizedMeasure]) -> GenerationScores:
    """Apply a scheme bottom-up and attach display heights.

    The scheme's leaves must match the supplied measure names exactly.  The
    height of a node is its standardized values divided by the product of the
    sigma_s normalizers on the path to the root, so sibling heights sum to the
    parent's height and the root's height equals its own values.
    """
    by_name = {m.name: m for m in g1}
    scheme.check_leaves(list(by_name))

    values: dict[str, np.ndarray] = {}
    sigmas: dict[str, float] = {}
    generation: dict[str, int] = {}

    def up(node: SchemeNode) -> np.ndarray:
        if node.is_leaf:
            values[node.name] = by_name[node.name].values
            generation[node.name] = 1
            return values[node.name]
        left, right = node.children
        values[node.name], sigmas[node.name] = _combine(node.name, [up(left), up(right)])
        generation[node.name] = 1 + max(generation[left.name], generation[right.name])
        return values[node.name]

    up(scheme.root)

    nodes: list[GenerationScore] = []

    def down(node: SchemeNode, divisor: float) -> None:
        nodes.append(GenerationScore(
            name=node.name,
            generation=generation[node.name],
            values=values[node.name],
            display_heights=values[node.name] / divisor,
        ))
        for child in node.children:  # none at a leaf
            down(child, divisor * sigmas[node.name])

    down(scheme.root, 1.0)
    nodes.sort(key=lambda node: -node.generation)  # stable: preorder within a generation
    return GenerationScores(scheme.scheme_id, tuple(nodes))


def scheme_invariance(g1: Sequence[StandardizedMeasure],
                      schemes: Sequence[InheritanceScheme]) -> float:
    """Maximum root-score discrepancy over all scheme pairs and graph nodes."""
    if len(schemes) < 2:
        raise ValueError("need at least 2 schemes")
    # run_scheme checks that each scheme's leaves are exactly the measure names
    roots = [run_scheme(s, g1).root().values for s in schemes]
    # rounded subtraction is monotone, so a node's largest pairwise |a - b| is max - min
    return float(np.max(np.ptp(np.array(roots), axis=0)))


def parse_scheme(obj: dict, scheme_id: str = "custom") -> InheritanceScheme:
    """Build a scheme from nested ``{"name": ..., "children": [...]}`` dicts."""

    def walk(node: dict) -> SchemeNode:
        if not isinstance(node, dict) or "name" not in node:
            raise SchemeError("scheme nodes must be objects with a 'name'")
        children = node.get("children", [])
        if not isinstance(children, list):
            raise SchemeError(f"children of scheme node {node['name']!r} must be a list")
        return SchemeNode(str(node["name"]), tuple(walk(c) for c in children))

    return InheritanceScheme(walk(obj), scheme_id=scheme_id)


def load_scheme(path: str) -> InheritanceScheme:
    with open(path, encoding="utf-8") as fh:
        return parse_scheme(json.load(fh), scheme_id=path)


def scheme_to_dict(scheme: InheritanceScheme) -> dict:
    def walk(node: SchemeNode) -> dict:
        if node.is_leaf:
            return {"name": node.name}
        return {"name": node.name, "children": [walk(c) for c in node.children]}

    return walk(scheme.root)


BUILTIN_SCHEME_IDS = ("drt", "rtd", "tdr")


def _tree(order: str, prefix: tuple[str, ...] = ()) -> SchemeNode:
    """Split the axes of ``AXES`` in ``order`` from the root down.

    An internal node is named by the axis values chosen so far ("IN",
    "IN-LO"); a leaf, with every axis chosen, by its D-R-T measure name.
    """
    if len(prefix) == len(order):
        value = dict(zip(order, prefix))
        return SchemeNode("-".join(value[axis] for axis in AXES))
    children = tuple(_tree(order, prefix + (v,)) for v in AXES[order[len(prefix)]])
    return SchemeNode("-".join(prefix) or "COMPOSITE", children)


def builtin_scheme(scheme_id: str) -> InheritanceScheme:
    """Shipped schemes over the standard measure set; the id is the axis split order."""
    if scheme_id not in BUILTIN_SCHEME_IDS:
        raise SchemeError(f"unknown builtin scheme {scheme_id!r}")
    return InheritanceScheme(_tree(scheme_id), scheme_id=scheme_id)
