import inspect

import gmclab
import gmclab.bounds
import gmclab.field
import gmclab.gmc
import gmclab.inequalities
import gmclab.kernel
import gmclab.measure

# test-only references, now in tests/reference.py, by the module that held them
MOVED = {
    gmclab.kernel: ("clip_to_psd", "regularized_entry", "green_subdisk", "default_epsilon"),
    gmclab.gmc: ("draw_roots", "sample_rooted", "verify_rooted_identity", "RootedSample",
                 "IdentityCheck"),
    gmclab.measure: ("local_energy",),
    gmclab.bounds: ("t0_l2", "local_energy_samples"),
    gmclab.field: ("normal_block",),
}
# duplicate paths deleted outright
DELETED = {
    gmclab.field: ("block_field", "block_fields", "FieldSample", "sample_field"),
    # graded_total_masses: total_masses itself refuses a non-finite gamma and
    # an all-0 sample
    gmclab.gmc: ("_field_blocks", "ROOT_CHUNK", "GmcSample", "gmc_mass",
                 "graded_total_masses"),
    gmclab.measure: ("_pair_distance_blocks",),
    # the default-epsilon kernel fill's off-diagonal is the Green matrix, bit
    # for bit; the full-eigh clip is inlined as _clipped_root of one eigh
    gmclab.kernel: ("offdiagonal_green", "_eigen_clip"),
    # imported only for a stale benchmark pin, never used there
    gmclab.bounds: ("field_matrix",),
    gmclab.inequalities: ("total_masses",),
    # the tests evaluate F with reference.evaluate_statistic
    gmclab.gmc.Statistic: ("__call__",),
}
# the stream contract: every step that sets a replica's numbers lives in field
STREAM_NAMES = ("_strip_sums", "block_roots", "check_replica_count", "MAX_REPLICA_CELLS",
                "replica_generator", "block_normals", "field_strips", "gather_blocks",
                "BATCH", "STRIP", "ROOT_SUBSTREAM")
REMOVED_FROM_ALL = ("clip_to_psd", "regularized_entry", "green_subdisk", "sample_rooted",
                    "verify_rooted_identity", "RootedSample", "IdentityCheck", "local_energy",
                    "t0_l2", "default_epsilon", "FieldSample", "sample_field", "GmcSample",
                    "gmc_mass")


def test_public_surface_is_what_commands_readme_and_demos_use():
    assert len(gmclab.__all__) == len(set(gmclab.__all__)) == 48
    for name in gmclab.__all__:
        assert hasattr(gmclab, name), name
    for name in REMOVED_FROM_ALL:
        assert not hasattr(gmclab, name), name
    for table in (MOVED, DELETED):
        for owner, names in table.items():
            for name in names:
                # vars, not hasattr: every class has a __call__, its type's
                assert name not in vars(owner), f"{owner.__name__}.{name}"
    for name in STREAM_NAMES:
        assert hasattr(gmclab.field, name), name
        assert not hasattr(gmclab.gmc, name), f"gmclab.gmc.{name}"
    for method in ("smooth_part", "smooth_matrix"):
        assert not hasattr(gmclab.kernel.DiskKernel, method), method
    def params(function):
        return set(inspect.signature(function).parameters)
    assert not {"start", "exponent"} & params(gmclab.laplace_transform)
    # the exponents alone pick verify_bound's threshold branch
    assert not {"l2"} & params(gmclab.verify_bound)
    # kahane_check takes the unit-disk model every sampled command builds
    assert not {"measure", "epsilon"} & params(gmclab.kahane_check)
