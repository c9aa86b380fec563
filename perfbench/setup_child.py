"""Time the set-up a gmclab CLI user pays before the first draw.

Usage: python3 setup_child.py SRC_DIR CONFIG

Run in a fresh interpreter: times `import gmclab.cli` plus the workload's
LayerSampler(spec, lattice, levels) construction and prints the seconds.
"""

import sys
import time


def main() -> int:
    src, cfg_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import gmclab.cli  # noqa: F401  (the import a CLI run pays)
    from gmclab.config import load_config
    from gmclab.field import LayerSampler
    from gmclab.pipelines import kernel_spec, lattice_for

    cfg = load_config(cfg_path)
    LayerSampler(kernel_spec(cfg), lattice_for(cfg), range(1, cfg.level + 1))
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
