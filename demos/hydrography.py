"""Walk through the hydrography ontology: two modelling levels joined by
meta-modelling axioms, checked for consistency, then turned into an actual
nested-set model.

Run with:  python3 demos/hydrography.py
"""

import json

from alcm.engine import check_consistency
from alcm.extraction import extract_model
from alcm.parser import parse_kb, print_kb
from alcm.semantics import interpretation_to_json, satisfies_kb

KB_TEXT = """
# Lower level: rivers and lakes as concepts with member individuals.
# Upper level: river and lake as individuals of HydrographicObject.
# The mbox glues the levels together: the individual river IS the
# concept River, and likewise for lake.

tbox { River and Lake subclassof bot; }
abox {
  HydrographicObject(river); HydrographicObject(lake);
  River(queguay); River(santaLucia);
  Lake(deRocha); Lake(delSauce);
}
mbox { river =m River; lake =m Lake; }
"""


def main():
    kb = parse_kb(KB_TEXT)
    print("The knowledge base:")
    print(print_kb(kb))

    verdict = check_consistency(kb)
    print("\nverdict:", "consistent" if verdict.consistent else "inconsistent")

    # A concrete model: individuals with meta-modelling become the set of
    # their concept's members, so `river` literally is {queguay, santaLucia}.
    model = extract_model(kb)
    assert satisfies_kb(model, kb)
    print("\nriver  ->", model.individuals["river"])
    print("lake   ->", model.individuals["lake"])
    print("queguay ->", model.individuals["queguay"])
    print("max nesting depth:", max(e.rank for e in model.domain),
          "(never exceeds the number of mbox axioms)")

    print("\nmodel as JSON:")
    print(json.dumps(interpretation_to_json(model), indent=2))

    # Two ways to break the KB, both invisible to punning-style reasoners:
    # 1. HydrographicObject subclassof River makes River a member of itself.
    broken = parse_kb(KB_TEXT + "tbox { HydrographicObject subclassof River; }")
    v = check_consistency(broken)
    print("\nwith HydrographicObject subclassof River:",
          "consistent" if v.consistent else "inconsistent")
    print("  certificate:", v.certificate.describe())

    # 2. river = lake while River and Lake are disjoint and inhabited.
    broken2 = parse_kb(KB_TEXT + "abox { river = lake; }")
    v2 = check_consistency(broken2)
    print("with river = lake:",
          "consistent" if v2.consistent else "inconsistent")
    print("  certificate:", v2.certificate.describe())


if __name__ == "__main__":
    main()
