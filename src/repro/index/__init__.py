"""Spatial-index substrate: the R-tree and its page format.

The UTK paper assumes the dataset is organized by a spatial index such as an
R-tree and drives both its filtering step (BBS-style branch and bound) and
plain top-k queries through it.  This subpackage implements the index from
scratch: :mod:`repro.index.pages` defines the one page format and its STR
bulk loader, and :class:`repro.index.rtree.RTree` keeps its nodes as rows of
one page array, with incremental insertion and deletion.
"""

from repro.index.rtree import RTree

__all__ = ["RTree"]
