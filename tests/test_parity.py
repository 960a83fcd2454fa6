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
    ("pipeline/single-teacher",
     "802cc09e21bf97c8dce2c5a1cebb9f2f6a5ef293b43d0d21ad543c148fe6842d"),
    ("pipeline/M-3-architectures-gated",
     "ac6a58c90b9a96c473307be346df251be259f98943a5333307f9ad032f706436"),
    ("pipeline/M-seeds-prediction-average",
     "ac77a2c23c7f05ca64ad6448133fbf8e24dc740dd1b9e3826c3b6e7b6ff9173b"),
    ("pipeline/D-3-partitions",
     "4f1db981d4c39aa3dbf48831b1a25cac9040bd8e20524e0488315f7e73a19faa"),
    ("pipeline/hint-val_auc",
     "791d187e2e64f465d5801504a2cfcadb0482daa14f2f1719c584e172dcd1353b"),
    ("pipeline/hint-kd_loss-no-merge",
     "98c0adca6186f4e0ee064ef5f6e22bb0c868a56d3f6a02866b324daff7c36f3f"),
    ("pipeline/cotrain",
     "cc44d3dc7442847fbcad1b60c0d6eb873f862ba3f66ff79e2921f90301dad9bb"),
    ("pipeline/baseline-teacher",
     "ee2fc3a7b416ed7c3670f09454158614271aaa63072dab1fc9293551b15e21f2"),
    ("pipeline/no-plain-student",
     "0d74f904948f9cd157b97d6fca09a6a9f1e37317aadd77d252fb36645db281af"),
    ("pipeline/shuffled-columns",
     "8b28eb8fe3052415ed2120d8a4a7f322192140d916a907f27075bb45420bd502"),
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
