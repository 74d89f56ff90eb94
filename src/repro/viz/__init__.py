"""Terminal visualization: render the paper's figures as ASCII/Unicode art.

No plotting dependency is available offline, so the experiment runner draws
its figures directly in the terminal: sparklines for traces (Fig. 8),
line charts for time series (Fig. 10) and bar charts for grouped
comparisons (Fig. 5/6/9).
"""

from repro.viz.ascii_charts import bar_chart, line_chart, sparkline

__all__ = ["bar_chart", "line_chart", "sparkline"]
