"""Knowledge-centric process mining toolkit.

Mines dependency graphs from event logs, constrains and repairs them
with rules mined from a knowledge graph, classifies traces into
context-aware variants by class profiles over their activities and the
KG facts about them, and quantifies log/model quality with
footprint-based fitness, precision and F-score.
"""

__version__ = "0.1.0"
