"""`verify`'s text and CSV output for reports that have findings, byte for
byte.  The golden panel holds only clean reports, so these pin the rows only
the text form prints (center order, the two inequality flags, the count
identity and the findings block) and CSV's `-` flags and `False` cells."""

import pytest

from cyclicdensity import build_group, cli
from table_oracle import with_orders


def tampered(spec: str, x: int, o: int):
    g = build_group(spec)
    ords = g.ord.copy()
    ords[x] = o
    return with_orders(g, ords, f"tampered:{spec}")


GROUPS = {"d8": ("dihedral:8", 4, 4), "q8": ("quaternion:8", 1, 1009)}

TEXT = {
    "d8": """\
group: tampered:dihedral:8
order: 8
center order: 2
cyclic subgroups: 7
alpha(G): 7/8 (approx 0.875000)
alpha(Z): 1/1 (approx 1.000000)
alpha(G) <= alpha(Z): yes
equality: no
structural condition: no
exp(G/Z): 2
2-central: yes
4-abelian: yes
o(G): 21/8 (approx 2.625000)
o(Z): 3/2 (approx 1.500000)
o(G) >= o(Z): yes
count identity (enumeration vs totient): no
proof steps (cosets of the center):
  center k=1 sum=2/1 order-identity=yes divisibility=yes coset-inequality=yes
         k=2 sum=3/2 order-identity=no divisibility=yes coset-inequality=yes
         k=2 sum=2/1 order-identity=yes divisibility=yes coset-inequality=yes
         k=4 sum=1/1 order-identity=yes divisibility=yes coset-inequality=yes
findings:
  count-identity: enumeration finds 7 cyclic subgroups, totient sum gives 13/2
  census-orders: subgroup counts by order disagree with the phi(d)-generators-per-subgroup identity
  order-identity: coset of 6 (k = 2) violates o(y x) = (k / gcd(k, o(x))) o(x) for some central x
""",
    "q8": """\
group: tampered:quaternion:8
order: 8
center order: 2
cyclic subgroups: 5
alpha(G): 5/8 (approx 0.625000)
alpha(Z): 1/1 (approx 1.000000)
alpha(G) <= alpha(Z): yes
equality: no
structural condition: no
exp(G/Z): 2
2-central: yes
4-abelian: yes
o(G): 129/1 (approx 129.000000)
o(Z): 3/2 (approx 1.500000)
o(G) >= o(Z): yes
count identity (enumeration vs totient): no
proof steps (cosets of the center):
  center k=1 sum=2/1 order-identity=yes divisibility=yes coset-inequality=yes
         k=4 sum=505/1008 order-identity=no divisibility=yes coset-inequality=yes
         k=4 sum=1/1 order-identity=yes divisibility=yes coset-inequality=yes
         k=4 sum=1/1 order-identity=yes divisibility=yes coset-inequality=yes
findings:
  count-identity: enumeration finds 5 cyclic subgroups, totient sum gives 4537/1008
  census-orders: subgroup counts by order disagree with the phi(d)-generators-per-subgroup identity
  order-identity: coset of 3 (k = 4) violates o(y x) = (k / gcd(k, o(x))) o(x) for some central x
""",
}

CSV_HEADER = ("label,order,cyclic_count,alpha_g,alpha_z,equality,structural,"
              "quotient_exponent,two_central,four_abelian,avg_order_g,avg_order_z,proof_steps\n")

CSV = {
    "d8": CSV_HEADER + "tampered:dihedral:8,8,7,7/8,1/1,False,False,2,True,True,21/8,3/2,"
    "k=1 sum=2/1 flags=+++; k=2 sum=3/2 flags=-++; k=2 sum=2/1 flags=+++; k=4 sum=1/1 flags=+++\n",
    "q8": CSV_HEADER + "tampered:quaternion:8,8,5,5/8,1/1,False,False,2,True,True,129/1,3/2,"
    "k=1 sum=2/1 flags=+++; k=4 sum=505/1008 flags=-++; k=4 sum=1/1 flags=+++; k=4 sum=1/1 flags=+++\n",
}


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_verify_output_with_findings(name, fmt, monkeypatch, capsys):
    g = tampered(*GROUPS[name])
    monkeypatch.setattr(cli, "build_group", lambda spec, max_size=None: g)
    assert cli.main(["verify", "--group", "x", *(["--csv"] if fmt == "csv" else [])]) == 1
    out, err = capsys.readouterr()
    assert out == (TEXT if fmt == "text" else CSV)[name]
    findings = TEXT[name].split("findings:\n")[1].splitlines()
    assert err == "".join(f"counterexample: {g.label}: {f.strip()}\n" for f in findings)
