import inspect

import gmclab
import gmclab.bounds
import gmclab.field
import gmclab.gmc
import gmclab.kernel
import gmclab.measure

# test-only references, now in tests/reference.py, by the module that held them
MOVED = {
    gmclab.kernel: ("clip_to_psd", "regularized_entry", "green_subdisk"),
    gmclab.gmc: ("draw_roots", "sample_rooted", "verify_rooted_identity", "RootedSample",
                 "IdentityCheck"),
    gmclab.measure: ("local_energy",),
    gmclab.bounds: ("t0_l2", "local_energy_samples"),
}
# duplicate paths deleted outright
DELETED = {
    gmclab.field: ("block_field",),
    gmclab.gmc: ("_field_blocks",),
    gmclab.measure: ("_pair_distance_blocks",),
}
REMOVED_FROM_ALL = ("clip_to_psd", "regularized_entry", "green_subdisk", "sample_rooted",
                    "verify_rooted_identity", "RootedSample", "IdentityCheck", "local_energy",
                    "t0_l2")


def test_public_surface_is_what_commands_readme_and_demos_use():
    assert len(gmclab.__all__) == len(set(gmclab.__all__)) == 53
    for name in gmclab.__all__:
        assert hasattr(gmclab, name), name
    for name in REMOVED_FROM_ALL:
        assert not hasattr(gmclab, name), name
    for table in (MOVED, DELETED):
        for module, names in table.items():
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
    for method in ("smooth_part", "smooth_matrix"):
        assert not hasattr(gmclab.kernel.DiskKernel, method), method
    assert "start" not in inspect.signature(gmclab.laplace_transform).parameters
