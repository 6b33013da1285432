#!/usr/bin/env python3
"""Export OBJ meshes of the singularity normal forms into ./meshes/.

Higher-dimensional forms are projected to a chosen coordinate triple,
which is recorded in the OBJ provenance comment.
"""

import argparse
import os

from tanvar.classify import SINGULARITY_SLUGS, normal_form, normal_form_type
from tanvar.mesh import sample_map, write_obj


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="meshes")
    parser.add_argument("--grid", type=int, default=50)
    parser.add_argument("--extent", type=float, default=1.0)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for slug, sing in SINGULARITY_SLUGS.items():
        # each form in the least ambient dimension it needs; its last
        # coordinate goes to the third axis
        ambient = len(normal_form_type(sing))
        coords = (1, 2, ambient)
        form = normal_form(sing, ambient)
        mesh = sample_map(
            form.chart_st,
            coords=coords,
            s_range=(-args.extent, args.extent),
            t_range=(-args.extent, args.extent),
            grid=args.grid,
            provenance=f"{slug} normal form, coords {coords}",
        )
        path = os.path.join(args.out, f"{slug}.obj")
        write_obj(mesh, path)
        print(f"wrote {path} ({len(mesh.vertices)} vertices)")


if __name__ == "__main__":
    main()
