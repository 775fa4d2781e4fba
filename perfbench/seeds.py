"""Seeds of the randomized inputs, derived from the benchmark's --seed."""

import hashlib


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for the input named ``label``: the first four bytes of
    SHA-256 of "<seed>/<label>". The same --seed gives the same inputs on
    every machine and Python version."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1
