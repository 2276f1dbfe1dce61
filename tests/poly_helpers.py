"""Polynomial helpers shared by the test modules."""

from chowline.poly import Poly


def rename(p, mapping):
    """p with its variables renamed; grades follow the old names."""
    return Poly.make({tuple((mapping.get(v, v), e) for v, e in mono): c
                      for mono, c in p.terms.items()},
                     {mapping.get(v, v): g for v, g in p.grades.items()},
                     p.bound)
