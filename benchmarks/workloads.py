"""The benchmark's workloads by name."""

import importlib

MODULES = {
    "sphere-roundtrip": "wl_sphere",
    "lattice-algebra": "wl_lattice",
    "cli-verify": "wl_cli",
}


def get(name: str):
    return importlib.import_module(MODULES[name])
