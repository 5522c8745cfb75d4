"""Shared fixtures: the command line in a child process, cold censuses, a census's
arrays with parts swapped, two orbit oracles and the scalar frame oracle."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import icosian
from icosian import E1, E2, E3, CapExceeded, cli, dual, polytope
from icosian.engine import distinct_rows, quats_of
from icosian.polytope import PolytopeComplex

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def run_cli():
    """Run ``python -m icosian ARGS`` in a child process.

    The child imports the same ``icosian`` package as the test process: the
    directory holding that package goes in front of any inherited
    ``PYTHONPATH``, so the tests need no installed ``icosian`` script.
    ``hashseed`` sets the child's ``PYTHONHASHSEED``, so that two runs can
    differ in the iteration order of every set of strings.
    """
    package_root = os.path.dirname(os.path.dirname(icosian.__file__))
    pythonpath = [package_root, os.environ.get("PYTHONPATH")]

    def run(*args, hashseed=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        if hashseed is not None:
            env["PYTHONHASHSEED"] = hashseed
        return subprocess.run([sys.executable, "-m", "icosian", *args],
                              env=env, capture_output=True, text=True)

    return run


@pytest.fixture
def cold_censuses(monkeypatch):
    """Empty census caches for one test, as in a fresh process: each census,
    and each complex the command line exports, is made anew on first use."""
    for module, name in ((polytope, "_census"), (polytope, "snub_census"),
                         (polytope, "embedding_censuses"), (cli, "_export_complex")):
        fresh = lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, fresh)


@pytest.fixture
def fresh_dual():
    """The dual's caches, emptied before and after the test."""
    caches = (dual.dual_vertex_set, dual._numbering, dual.dual_complex, dual.dual_cell)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def census_copy(real, cells=None, **arrays):
    """A PolytopeComplex of the real census's arrays, keeping only the cells at the
    indices cells (their table rows, normals and offsets alike), and with each
    argument named in arrays (vertex_rows, edges, offsets) swapped in."""
    keep = np.arange(len(real.cell_table)) if cells is None else np.asarray(cells, dtype=np.intp)
    normals, nden = real.normal_rows
    return PolytopeComplex(**{
        "vertex_rows": real.vertex_rows, "edges": real.edge_array, "faces": real.face_array,
        "cells": real.cell_table[keep], "normal_rows": (normals[keep], nden),
        "offsets": [real.offsets[k] for k in keep.tolist()], "orient": real._orient, **arrays})


def _scan_project_scripts(text):
    """The ``key = "value"`` entries of ``[project.scripts]``, read line by line."""
    entries, inside = {}, False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            key, value = (part.strip().strip('"') for part in line.split("=", 1))
            entries[key] = value
    return entries


@pytest.fixture
def console_scripts():
    """The ``[project.scripts]`` table of the checkout's ``pyproject.toml``.

    ``tomllib`` exists only from Python 3.11, so the table is read by a line
    scan that runs on every supported Python; where ``tomllib`` exists it must
    read the same table.
    """
    text = PYPROJECT.read_text()
    scripts = _scan_project_scripts(text)
    try:
        import tomllib
    except ModuleNotFoundError:
        return scripts
    assert tomllib.loads(text)["project"]["scripts"] == scripts
    return scripts


def _generate(generators, cap: int) -> set:
    """Every product of the generators, closed under right multiplication.

    A breadth-first search over a set of objects with a product, Quaternion
    or Transform: for generators of a finite group it finds the whole group,
    identity included, and raises CapExceeded once more than cap elements
    are found.
    """
    gens = list(generators)
    elems = set(gens)
    frontier = list(elems)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
                    if len(elems) > cap:
                        raise CapExceeded(f"closure exceeded {cap} elements")
        frontier = fresh
    return elems


@pytest.fixture
def generate():
    """The object-by-object closure oracle that engine.closure_points must match."""
    return _generate


def _orbit_by_elements(group, v) -> tuple:
    """The orbit of v from its images under every element of the group, canonically sorted."""
    rows, den = group.images(v)
    return quats_of(distinct_rows(rows), den)


@pytest.fixture(scope="session")
def orbit_by_elements():
    """The all-elements orbit oracle that coxeter.orbit, a generator closure, must match."""
    return _orbit_by_elements


def scalar_frame_coords(u, points):
    """The frame coordinates by scalar Quaternion.dot: the oracle of polytope.frame_table."""
    frame = [unit * u for unit in (E1, E2, E3)]
    return [tuple(f.dot(x) for f in frame) for x in points]
