"""Make the checkout's simulator importable for the benchmark self-tests."""

from perfbench import use_source_tree

assert use_source_tree(), "perfbench self-tests need the checkout's src/"
