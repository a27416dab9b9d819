"""Shared helpers for the test suite."""

from __future__ import annotations

import shlex
from decimal import Decimal
from pathlib import Path

import numpy as np

from weylcalc.operators import ConvolutionOperator, WeylOperator


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list:
    """argv of every ``weylcalc ...`` command in the ``sh`` block of the
    README's command-line section, comments and line continuations dropped."""
    section = README.read_text(encoding="utf-8").split("## Command-line interface")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    words = shlex.split(block.replace("\\\n", " "), comments=True)
    starts = [i for i, word in enumerate(words) if word == "weylcalc"]
    return [words[i + 1 : j] for i, j in zip(starts, starts[1:] + [len(words)])]


def unit_disk_complex(rng, size=None):
    """Complex samples uniformly distributed in the closed unit disk."""
    r = np.sqrt(rng.random(size))
    theta = 2 * np.pi * rng.random(size)
    return r * np.exp(1j * theta)


def rounded_points(disk) -> np.ndarray:
    """The points R e^(2 pi i j / M), j < M, of DiskSpec(R, M), each
    rounded to complex128."""
    theta = 2 * np.pi * np.arange(disk.grid_points) / disk.grid_points
    return disk.radius * np.exp(1j * theta)


def random_weyl_operators(count: int, seed: int = 0, max_order: int = 5):
    """Random T = M - a z I with M of order <= max_order and all
    coefficients (and a) sampled in the unit disk."""
    rng = np.random.default_rng(seed)
    ops = []
    while len(ops) < count:
        order = int(rng.integers(1, max_order + 1))
        d = unit_disk_complex(rng, order + 1)
        if d[order] == 0:  # keep the nominal order meaningful
            continue
        a = complex(unit_disk_complex(rng))
        ops.append(WeylOperator(ConvolutionOperator(d), a))
    return ops


#: pi to 60 digits
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def roots_of_unity(count: int) -> list:
    """(cos, sin) of 2 pi j / count for j < count, to about 50 digits in a
    decimal context of 50 digits or more."""
    x = 2 * PI_60 / count
    cos, sin, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    while abs(term) > Decimal("1e-55"):
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
        n += 1
        term = term * x / n
    roots = [(Decimal(1), Decimal(0))]
    for _ in range(count - 1):
        re, im = roots[-1]
        roots.append((re * cos - im * sin, re * sin + im * cos))
    return roots
