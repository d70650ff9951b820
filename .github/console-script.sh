#!/usr/bin/env bash
# Runs the installed inertia-lab entry point; the tests call cli.main in-process.
# Usage, after `pip install -e .`: bash .github/console-script.sh
set -e

out="$(inertia-lab inertia --matrix '[[1,2],[2,1]]')"
test "$out" = '{"neg":1,"zero":0,"pos":1}' || { echo "inertia-lab printed: $out"; exit 1; }

# a profile whose blocks the elimination cannot certify (its stack fallback)
inertia-lab pontryagin profile --matrix '[[-1,0],[0,1e10]]' | python3 -c '
import json, sys
profile = json.load(sys.stdin)["profile"]
if profile != [1, 0]:
    sys.exit(f"inertia-lab pontryagin profile printed {profile!r}, expected [1, 0]")
'

# inputs that once ended in a traceback (exit 1) are refused as bad input (exit 2)
refused() {
  code=0
  inertia-lab "$@" > /dev/null 2>&1 || code=$?
  test "$code" = 2 || { echo "inertia-lab $* exited $code, expected 2"; exit 1; }
}
# a lattice whose point count overflows a float
refused absmon check --fn exp --box 0:1 --step 5e-324
refused absmon check --fn exp --box=0:1e308 --step 1e-10
# a function "type" that is not a string
refused apply --fn '{"type":["series"]}' --matrix '[[1]]'

# an inertia claim at k = 0 constrains its one slot: the recipe finds a witness
inertia-lab falsify '{"theorem":"inertia","fn":{"type":"series","arity":1,"terms":[{"alpha":[2],"coeff":1}]},"config":{"k":[0],"l":0,"trials":5}}' \
  | python3 -c '
import json, sys
witnesses = json.load(sys.stdin)["witnesses"]
if len(witnesses) != 1:
    sys.exit(f"inertia-lab falsify printed {len(witnesses)} witnesses, expected 1")
'

# an offset next to a slope on a slot with k = 0: the recipe's core is PSD of rank one
inertia-lab falsify '{"theorem":"inertia","fn":{"type":"series","arity":1,"terms":[{"alpha":[0],"coeff":1},{"alpha":[1],"coeff":1}]},"config":{"k":[0],"l":0,"trials":5}}' \
  | python3 -c '
import json, sys
witnesses = json.load(sys.stdin)["witnesses"]
if len(witnesses) != 1:
    sys.exit(f"inertia-lab falsify printed {len(witnesses)} witnesses, expected 1")
'

# a first rung of three candidates, the 1x1 tuple (t0, -t0) first, whose
# image t0^2 is PSD: the judge takes each of them in order, its tuple as a
# stack of one, and the second one breaks l = 0
inertia-lab falsify --strategy recipe '{"theorem":"bounded","fn":{"type":"series","arity":2,"terms":[{"alpha":[0,2],"coeff":1}]},"config":{"k":[0,1],"l":0}}' \
  | python3 -c '
import json, sys
rep = json.load(sys.stdin)
trials, witnesses = rep["trials"], rep["witnesses"]
if trials != 2 or len(witnesses) != 1:
    sys.exit(f"inertia-lab falsify printed {trials} trials and {len(witnesses)} witnesses, expected 2 and 1")
sizes, observed = [m["n"] for m in witnesses[0]["matrices"]], witnesses[0]["observed"]
if sizes != [4, 4] or observed != {"neg": 1, "zero": 0, "pos": 3}:
    sys.exit(f"inertia-lab falsify printed a witness of sizes {sizes} observed {observed}, expected 4x4, neg 1, pos 3")
'

# a lift claim with an affine f over open_positive and sizes 2..9: each trial
# chunk is one zero-padded stack, so f(0) = 0.5 is zeroed outside every
# tuple's block, the padding's zeros pass the domain check, and each tuple's
# lifts gather its own rows
inertia-lab verify '{"theorem":"lift","fn":{"type":"affine","offset":0.5,"c":2,"slot":1,"arity":1},"config":{"domain":{"kind":"open_positive","rho":1},"k":[1],"l":1,"n_range":[2,9],"trials":40,"seed":3}}' \
  | python3 -c '
import json, sys
label = json.load(sys.stdin)["label"]
if label != "pass: 40 trials, 0 failures":
    sys.exit(f"inertia-lab verify printed {label!r}, expected a pass of 40 trials")
'

# a subnormal matrix: its zero eigenvalue is a plus direction, not a minus one
inertia-lab pontryagin factor --matrix '[[0,0],[0,-1e-315]]' --k 1 | python3 -c '
import json, sys
signature = json.load(sys.stdin)["signature"]
if signature != {"plus": 1, "minus": 1}:
    sys.exit(f"inertia-lab pontryagin factor printed {signature!r}, expected plus 1, minus 1")
'

# an image that overflows is refused with exit 2, and no numpy warning
code=0
err="$(inertia-lab apply --fn '{"type":"series","arity":1,"terms":[{"alpha":[3],"coeff":1}]}' \
  --matrix '[[1e150,0],[0,1]]' 2>&1 > /dev/null)" || code=$?
test "$code" = 2 || { echo "inertia-lab apply exited $code, expected 2"; exit 1; }
case "$err" in *RuntimeWarning*) echo "inertia-lab apply warned: $err"; exit 1;; esac
