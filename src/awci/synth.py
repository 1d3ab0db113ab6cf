"""Seeded synthetic datasets with planted conserved blocks and known ground truth."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Alphabet, AnchoredInterval, AwciSet, Dataset, ValidationError, build_string


@dataclass(frozen=True)
class PlantedSpec:
    """Generator parameters for one synthetic dataset."""
    m: int = 3
    n: int = 200
    alphabet_size: int = 50        # pool of background characters
    block_count: int = 3
    block_length: int = 20
    planted_delta: int = 0         # indels injected per block (total, interior)
    background_sharing: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.m < 2 or self.n < 1 or self.alphabet_size < 1:
            raise ValidationError("need m >= 2, n >= 1, alphabet_size >= 1")
        if self.block_count < 0 or self.block_length < 1 or self.planted_delta < 0:
            raise ValidationError("bad block parameters")
        if not 0.0 <= self.background_sharing <= 1.0:
            raise ValidationError("background_sharing must be in [0, 1]")
        # blocks must fit with a one-position gap around each
        need = self.block_count * (self.block_length + 1) + 1
        if self.block_count and need > self.n:
            raise ValidationError(
                f"{self.block_count} blocks of length {self.block_length} "
                f"do not fit in n = {self.n}")
        if self.planted_delta and self.block_length < 3:
            raise ValidationError("indel injection needs block_length >= 3")


def generate_planted(spec: PlantedSpec) -> tuple[Dataset, list[AwciSet]]:
    """Build m strings with planted pairwise-conserved blocks.

    Block column t carries the two fresh boundary characters c.t and c.t+1 in
    every string, so any proper sub-interval of a block can be extended by an
    adjacent position sharing a boundary character and is therefore never
    closed: the full block extents are the ground truth. Injected indels drop
    both boundary characters at an interior column of one string (the flanking
    columns keep them, leaving common sets intact), so block endpoints stay
    anchored. Background positions are private, optionally sprinkled with
    shared characters from a small pool.
    """
    spec.validate()
    rng = random.Random(spec.seed)

    # block start offsets, identical across strings, with >= 1 gap everywhere
    starts: list[int] = []
    if spec.block_count:
        slack = spec.n - spec.block_count * (spec.block_length + 1) - 1
        gaps = [1] * (spec.block_count + 1)
        for _ in range(slack):
            gaps[rng.randrange(len(gaps))] += 1
        pos = 0
        for b in range(spec.block_count):
            pos += gaps[b]
            starts.append(pos + 1)  # 1-based
            pos += spec.block_length

    sets: list[list[set[str]]] = [
        [{f"p{s}.{p}"} for p in range(1, spec.n + 1)] for s in range(spec.m)
    ]
    for b, start in enumerate(starts):
        for t in range(spec.block_length):
            for s in range(spec.m):
                sets[s][start + t - 1].update((f"c{b}.{t}", f"c{b}.{t + 1}"))
        interior = [(s, t) for s in range(spec.m)
                    for t in range(1, spec.block_length - 1)]
        for s, t in rng.sample(interior, min(spec.planted_delta, len(interior))):
            sets[s][start + t - 1] -= {f"c{b}.{t}", f"c{b}.{t + 1}"}

    if spec.background_sharing > 0.0:
        blocked = set()
        for start in starts:
            blocked.update(range(start, start + spec.block_length))
        for s in range(spec.m):
            for p in range(1, spec.n + 1):
                if p not in blocked and rng.random() < spec.background_sharing:
                    sets[s][p - 1].add(f"b{rng.randrange(spec.alphabet_size)}")

    alphabet = Alphabet()
    strings = [build_string(alphabet, f"G{s + 1}", [sorted(ps) for ps in sets[s]])
               for s in range(spec.m)]
    dataset = Dataset(strings, alphabet)

    truth = []
    for start in starts:
        members = tuple(AnchoredInterval(f"G{s + 1}", start,
                                         start + spec.block_length - 1)
                        for s in range(spec.m))
        truth.append(AwciSet(members=members))
    return dataset, truth


def random_instance(seed: int, *, max_m: int = 4, max_n: int = 12,
                    break_prob: float = 0.1) -> Dataset:
    """Small random dataset for differential testing (seeded, deterministic):
    up to 8 characters, up to 3 per position."""
    rng = random.Random(seed)
    m = rng.randint(2, max_m)
    alphabet = Alphabet()
    sigma = [chr(ord("a") + c) for c in range(rng.randint(2, 8))]
    strings = []
    for s in range(m):
        n = rng.randint(1, max_n)
        positions = [rng.sample(sigma, rng.randint(1, min(3, len(sigma))))
                     for _ in range(n)]
        breaks = [p for p in range(1, n) if rng.random() < break_prob]
        strings.append(build_string(alphabet, f"S{s + 1}", positions, breaks))
    return Dataset(strings, alphabet)
