"""The view catalog the benchmark's servers are started with.

The repository's default catalog (the paper's registrar views) plus the
chain-of-diamonds unfolding of Proposition 1, whose output is exponential
in the instance size.
"""

from __future__ import annotations


def bench_catalog() -> dict:
    from repro.serve.net.app import default_catalog
    from repro.workloads.blowup import chain_of_diamonds_transducer

    catalog = default_catalog()
    catalog["diamonds"] = chain_of_diamonds_transducer
    return catalog


def tau1_output_dtd():
    """The exact output type of tau1 (the undecided-view runtime check target)."""
    from repro.xmltree.dtd import DTD, Epsilon, alt, concat, opt, star, sym

    text = sym("text")
    return DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": alt(Epsilon(), concat(sym("cno"), sym("title"), sym("prereq"))),
            "prereq": star(sym("course")),
            "cno": opt(text),
            "title": opt(text),
        },
    )
