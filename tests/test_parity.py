"""Every bitwise-parity run still gives its pinned hash.

``tests/parity_digest.py`` trains the model zoo, distils students and runs
``ctrkd run`` on seeded inputs, hashing what each run produces. A change
that alters any training trajectory or pipeline output fails here; a change
that means to alter one updates its pin here and says why.
"""
import parity_digest

PINNED = [
    ("teacher/lr",
     "9f9d3f3bfd618d6b7f7ef1d9bb27984f9fe16f35d858f4862b1a274ee04bf52c"),
    ("teacher/fm",
     "097138b815e0ee599983fd018c19f5544cbd69a1efb5ce7f9e5c07b6fa2f6aae"),
    ("teacher/dnn",
     "4695d8d7cb26f3d94ee3ab2593414ee3f9fa99ec80ac04c857e8b74ff0aa3320"),
    ("teacher/wide_deep",
     "d592901847fa25270bd80fcbae4c3872d0c02a27cc920fa3e41dfca4a5e7b0af"),
    ("teacher/deepfm",
     "9576e0254ff7ae1d6041aa4b270fcd93e4eeb66fa1a531665377e7f8ba09a22b"),
    ("teacher/dcn",
     "c1d14433ea8f886912b0043096d56f1e3f7c3af715194eb4d971e762a8dec533"),
    ("teacher/xdeepfm",
     "d438301d75d9824c9017e2628d275277f4338d42d2d0ab9a2e6a83a503474335"),
    ("teacher/dnn-dropout-l2",
     "64c1b006a7a0338974ad8663c00109b026c438f98883a7a779ebb2481eb047b1"),
    ("teacher/xdeepfm-one-field",
     "48a7a6a19ed4d0b821c1cac0e583aa1f51de8666e495a50393407f81e1607df1"),
    ("student/gated-kd_loss_min",
     "17ac7ef7350820adb7660bb518ef9742aee150d9a7a9b852f2cab373f2a52618"),
    ("student/val_auc_max",
     "5cc471be144b5cbe41a91882a2e8ca9550c8fbbf973148279e4b4a11d3604196"),
    ("student/hint",
     "76d2f354f949842bbb2bb9c37e4b49b18dac250d9da6f2c5ad15c66818ca250c"),
    ("student/beta0",
     "b1135c19f2b65752712c81f105dadfbd2d57b24eee21ec5b903906f02886cb90"),
    ("cotrain/soft",
     "2c31dd4dc2504a620bc09ad3ad2dbd4db718369b48dc1d3cb961821c25d37ade"),
    ("cotrain/hint",
     "9ab620a6359822a0aec981a338711fcfc377e27f257eb53fa9920680110a3f25"),
    # the pipeline runs hash every .ckpt file's bytes, so these ten moved when
    # checkpoints became .npz files; hashed by loaded content they are unchanged
    ("pipeline/single-teacher",
     "ca1cc55dd792504bbf415c3f3a137076a23993aa377d4fbff56fdae4950be007"),
    ("pipeline/M-3-architectures-gated",
     "b57af91dd4c76953790faa95caa88065ec0bebe45c99e31bee6d9c910e776339"),
    ("pipeline/M-seeds-prediction-average",
     "a0772b83175e670e83b5d64f20e1d8d1432fbb14ebadae89ca153d51ef1a0d91"),
    ("pipeline/D-3-partitions",
     "af51df5f17cf3ab03542f84396211ae4b1000030a0fdf119255df4b660164eb1"),
    ("pipeline/hint-val_auc",
     "184e0ef499a1408030aba9a812e135416120d53cb5b98c300902c1cd3dd4e6f4"),
    ("pipeline/hint-kd_loss-no-merge",
     "b2559ea321f63f6bdc29ee0593ac3a9e8a26e1e02b9efae6b5e036018ff0c5ac"),
    ("pipeline/cotrain",
     "daa1013803248a3720586642b768c81c16f451979d5b6685d434064cdbe1538c"),
    ("pipeline/baseline-teacher",
     "b5fa1c480b252f613a94eba7ca24e3cc87be1517fde5df7873bff660d2aa29e5"),
    ("pipeline/no-plain-student",
     "57d6c7a30a4d11e38a1a7de0a1262a78ff9a782cc94010933154eae7b25fe214"),
    ("pipeline/shuffled-columns",
     "c575ffe7d5454cea18789443bbf718d1729018ee573d2da948d8e4718a355211"),
    ("bigvocab/teacher/deepfm",
     "df3a42d89382ac9388df207a40a7d8e681458f3a570d9b65181243e89970aa9d"),
    ("bigvocab/teacher/wide_deep",
     "e578f15aee9ef9cdff34793eceeefa15017b6099ea096569bb70d5c0dfce4ea8"),
    ("bigvocab/teacher/deepfm-l2",
     "037b48eacdee7ae5eafdc993cb84da1a71baea9ffce8f0b41ecc169628f08236"),
    ("bigvocab/student",
     "598de9d29f0d622f627e7c4169aaa0c5598f5ba80f8fca76740b172a097a957b"),
]


def test_every_parity_run_gives_its_pinned_hash():
    assert list(parity_digest.all_runs()) == PINNED
