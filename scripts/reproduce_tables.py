#!/usr/bin/env python3
"""Print the generic-type tables for every curve class.

For each class and dimension this lists the types of stratum codimension
at most one, their codimension, and the singularity of the tangent variety.
"""

import argparse

from tanvar.classify import classify
from tanvar.strata import CLASSES, codimension, enumerate_generic


def table(cls):
    print(f"== {cls.describe()}")
    for A in enumerate_generic(cls):
        result = classify(A, cls)
        line = f"  {A.render():<18} codim {codimension(A, cls)}  ->  {result.singularity.value}"
        if result.caveat:
            line += "  [" + result.caveat + "]"
        print(line)
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-N", type=int, default=6)
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()

    for name, make in CLASSES.items():
        dims = range(1, args.max_n + 1) if name == "contact" else range(2, args.max_N + 1)
        for dim in dims:
            table(make(dim))


if __name__ == "__main__":
    main()
