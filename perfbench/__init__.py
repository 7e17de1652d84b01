"""End-to-end campaign benchmark for the crowd-answer validation library.

Run ``python3 perfbench/run.py --help`` from the repository root. The
package is the benchmark only: it drives ``repro`` through its public API
and adds nothing to it.
"""
