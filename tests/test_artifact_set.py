from artifact_set import INSTANCES, RUNS, build


def test_two_builds_are_byte_identical(tmp_path):
    first = build(tmp_path / "a")
    assert build(tmp_path / "b") == first
    assert {p.parts[0] for p in first} == {"instances", *RUNS}
    assert {p.parts[1] for p in first if p.parts[0] == "instances"} == set(INSTANCES)
    for path in first:
        assert ((tmp_path / "a" / path).read_bytes()
                == (tmp_path / "b" / path).read_bytes()), path
