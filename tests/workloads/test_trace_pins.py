"""Pinned bytes of every registry workload's trace.

Each entry is ``(events, sha256)`` of one trace, hashing every event as
``struct.pack("<3q", instruction, page, compute_cycles)``, so a digest
does not depend on the platform's byte order or word size.  The
generators promise that a trace is a pure function of ``(workload,
scale, seed, input_set)``; these pins hold them to the same bytes
across interpreters and across changes to how the phases draw.
"""

import hashlib
import itertools
import struct

import pytest

from repro.workloads.registry import WORKLOAD_NAMES, build_workload

SCALES = (32, 128)
SEEDS = (0, 1)
INPUT_SETS = ("train", "ref")

PINNED_TRACES = {
    ("MSER", 32, 0, "train"):
        (5_281, "36c265dab3b5557d5dcb414596be27dea6aec63c78739ba28a30f3d0deddc4a3"),
    ("MSER", 32, 0, "ref"):
        (14_382, "3993b63923dcf2300cd251b680471ddb208bce0e71dacfc0b8d9c4ac72e77576"),
    ("MSER", 32, 1, "train"):
        (5_281, "9a0a453bc2bae228a390400af3c05d9fbbd44eae800282ed52b0d9d388b4f395"),
    ("MSER", 32, 1, "ref"):
        (14_382, "add8953c04b10f90db9dfb2be29bfafec79d20ae51f54eb0775c1177982bca72"),
    ("MSER", 128, 0, "train"):
        (1_545, "494fb56d64392abd6619de7841b09fb704b430c0176141a38d61134d51075fb1"),
    ("MSER", 128, 0, "ref"):
        (4_345, "66650b786bf29af03123ff1ef39f43a1278203a25dffd4f2a548762c7f9bf7d4"),
    ("MSER", 128, 1, "train"):
        (1_545, "bb9453eae2603b4d8c754e5a14cf6502a292e1449678e2ee9590c79fb9c00907"),
    ("MSER", 128, 1, "ref"):
        (4_345, "a592c0334d34a73a7bc089796e738f81d3c29a695680c963933d3947625cb07f"),
    ("SIFT", 32, 0, "train"):
        (7_054, "07cd304b06f1245528c613331c49d3c691e00d04dfd811f6b1b9e03acc74dab7"),
    ("SIFT", 32, 0, "ref"):
        (17_297, "f6ed06d27be6260c961a20cc4f70158e1b97621c492478076444aa222c453578"),
    ("SIFT", 32, 1, "train"):
        (7_054, "caaa2178cc24a823c2b4f3411cd9d367190d371353e4af73e3a11d840230a294"),
    ("SIFT", 32, 1, "ref"):
        (17_297, "f2a13d2033e97db65923f01adbfb2305f99d47dca81e07ec347ca1dff1906b12"),
    ("SIFT", 128, 0, "train"):
        (1_590, "f71dae5bea47f854895a5d9fc8d144f17eb64914bfdfd1c4fcf84bb3cd329084"),
    ("SIFT", 128, 0, "ref"):
        (4_150, "da1993a7482396bde7eaa176ae3e2ece05fbe568394b5ce0667e88b5ee3445fc"),
    ("SIFT", 128, 1, "train"):
        (1_590, "c72ea7ae2c9d3ab5e725ad8a0e0be3d63186b677fbdd3aa0fd03a8260ffc364c"),
    ("SIFT", 128, 1, "ref"):
        (4_150, "788fc5b8d5e35400ebb7306d634e1bc5c810f6da5724b9d5f80551efdf20043b"),
    ("bwaves", 32, 0, "train"):
        (4_720, "87cbba0a1b0031403f18af6f18142eb61096edc2a053196aa37ace47bff72f93"),
    ("bwaves", 32, 0, "ref"):
        (15_782, "d10227ad16b8809e3183b3a93351fb07e8c3edb6e5806c322e5d77ec4125d59e"),
    ("bwaves", 32, 1, "train"):
        (4_748, "b4a573153947b5177d6fbdf242054366ae31e4520355f90f756fca01019ab1bf"),
    ("bwaves", 32, 1, "ref"):
        (15_793, "768db0915448539de416e4c6b0108ffdec9eb88a3dadceea883e5916e7f08676"),
    ("bwaves", 128, 0, "train"):
        (1_178, "bb79ecde755b9b247e8d2ae84125764adeb48f4f1f6d111a389ea50238f3234e"),
    ("bwaves", 128, 0, "ref"):
        (3_942, "38805b310adc9b9a596da3be3afee9479d66068d29b3e77386c736619c4b482c"),
    ("bwaves", 128, 1, "train"):
        (1_187, "1d8cff7daf1c51b2e673a7c7aba5af57cf675d30e51b25f32d98a4cbfd2e0f34"),
    ("bwaves", 128, 1, "ref"):
        (3_936, "7c437edd06116e36d32f30b94b561b6fbbf980f5c17b1099aace43064aaf6616"),
    ("cactuBSSN", 32, 0, "train"):
        (1_662, "ea2b57640860c15541b5320427f7bf64f25b5f59b519e5b18c802808bf0ddb63"),
    ("cactuBSSN", 32, 0, "ref"):
        (5_544, "605c74d1f512984facae122d3491fcd063784be073e5e4e0266ad00907d22c71"),
    ("cactuBSSN", 32, 1, "train"):
        (1_662, "2104b87a3892f139cbdc72a5b715dedb947dd985266f238acebfad6795fc6eb2"),
    ("cactuBSSN", 32, 1, "ref"):
        (5_544, "9cf25f46a589e1f14516159a3689884159636524eb2a51a57b38c209ab9b3522"),
    ("cactuBSSN", 128, 0, "train"):
        (690, "344c294a5d7b221b5b9caa0f58bec4c4a1520a8e09c031a47799ef4179715370"),
    ("cactuBSSN", 128, 0, "ref"):
        (2_304, "0a087f406f4889fe069cde6dc679aca8eed4a963aad3e9f34e30cb733c266e0b"),
    ("cactuBSSN", 128, 1, "train"):
        (690, "7b59923208e9a06765d61c3027ad23e9dcbdcbe711245892a24628f12b10c7b0"),
    ("cactuBSSN", 128, 1, "ref"):
        (2_304, "10c19f951403be796b3b435c23ac802b220c1233022daece4f9e3dd1c65d2249"),
    ("deepsjeng", 32, 0, "train"):
        (5_397, "ceb974e8584a6c318fd414589b8c3da8099d61496182a1c37f7dfdc3ce3a2548"),
    ("deepsjeng", 32, 0, "ref"):
        (18_000, "d337dd5c1fb021ca0d0eeb1a9c4dcc0bd75dc11becf13eb59dd7e91ef4987a74"),
    ("deepsjeng", 32, 1, "train"):
        (5_397, "9ac79dba50161d29444125ac9fc5237d649231df6d28936e2e38aa9d5686a71e"),
    ("deepsjeng", 32, 1, "ref"):
        (18_000, "163aeee9670cbd0b30080eba23db43268d99aa3f5c36bd6e792b53d49a161b38"),
    ("deepsjeng", 128, 0, "train"):
        (1_346, "cc096db3a836f7e2d78afbbdf4eec2cf80b0b6703606acac22aa5a376947ff80"),
    ("deepsjeng", 128, 0, "ref"):
        (4_500, "cccccde38a93c39ee74c9d2871f67617d3bc63fa67ef3d59dd85c47773cbd4ac"),
    ("deepsjeng", 128, 1, "train"):
        (1_346, "ae29a10d0e64628e412393ea9e3b7d884c7d4bc575aa36a57abff7805a4bbc63"),
    ("deepsjeng", 128, 1, "ref"):
        (4_500, "21df99e2764bb526f9614c155ddd0e1ed4117fc6255aa6df9a9994ec9b6aa114"),
    ("exchange2", 32, 0, "train"):
        (3_000, "3a0bf8a34a305d134b216b4556c1d2a389e55eddb1be8359f66f14a3b208560f"),
    ("exchange2", 32, 0, "ref"):
        (10_000, "8aa87cef9a5bd26f09020e31c16e058f71365b01d7cb44dff8c606305b2f6f37"),
    ("exchange2", 32, 1, "train"):
        (3_000, "d2d36bcf46c2940aaf18009de2fd1e4d49ed5ecca03384c60a33e3733dd2838c"),
    ("exchange2", 32, 1, "ref"):
        (10_000, "b3ab8d62696cee1fdde465ae61869dbad2379e59b984e523791701796694b0ca"),
    ("exchange2", 128, 0, "train"):
        (750, "a42ab4a7e7b844053a3c3cd272709f87f19f0b7ddd520df183cb87b442704472"),
    ("exchange2", 128, 0, "ref"):
        (2_500, "578c1cc3d4297f72843cd9e4471b72a03973de59be2f2154191abf4e73bea902"),
    ("exchange2", 128, 1, "train"):
        (750, "156ed1239648d9166ca8e9c5dd7b52db847b2e562e62756fb665fd12ebe0ab49"),
    ("exchange2", 128, 1, "ref"):
        (2_500, "a0ec3289e50848f47a5cc75d275c087121e25ba1f917d6ded3f1be9b2f29d323"),
    ("imagick", 32, 0, "train"):
        (1_228, "df5b7a9a6f294a2300cbc6651e07d01c76a53d415c0a96e8f7824e98c732991a"),
    ("imagick", 32, 0, "ref"):
        (4_912, "e36b73ef901fb8c833ffd657d7f2aa136bfb4f72243033cf806b827c8a3244ce"),
    ("imagick", 32, 1, "train"):
        (1_228, "01fd764df1ca5e261568c06a1e5b620b4dcf0c491ffc10e4c5a79ddda2ac7a3a"),
    ("imagick", 32, 1, "ref"):
        (4_912, "ebe9986ce38ba16c213746cf66a0e8f6f0f140421c4fdc0bb084812a5f1d4f70"),
    ("imagick", 128, 0, "train"):
        (768, "fcc6244f40020f1b58443fe862fcd14818a5d94a44f3fedc94e561abe40332ed"),
    ("imagick", 128, 0, "ref"):
        (3_072, "d289f843599d3234de81de7e128fea848f97d82ba2be4e812b6abbcd1daad11e"),
    ("imagick", 128, 1, "train"):
        (768, "57c177096582d85b742be6f49dc72bc4baa1b95c3c47e0e214966be6cdc1bf91"),
    ("imagick", 128, 1, "ref"):
        (3_072, "a6af72a4205a1a1e280745b0dae8c7e374d13178f90b0b3523fb0b2c85d37052"),
    ("lbm", 32, 0, "train"):
        (3_953, "4dae1fd69c1ba61d2ce2cd6097ad94c1026a66fe0d667007479e332b2afb9f16"),
    ("lbm", 32, 0, "ref"):
        (13_180, "2c9cd93c5ddc684e2077e1d6bd3562f292ae71e367f74b7ec85deeab1f12149b"),
    ("lbm", 32, 1, "train"):
        (3_953, "dd17007f398dafe06631ea29b47266da91e546c938479433f7d333a73fefddd2"),
    ("lbm", 32, 1, "ref"):
        (13_180, "313301e60d966b0abe1b6757eb74b95d7d05454362c74bfeb7a93a220cb8d64a"),
    ("lbm", 128, 0, "train"):
        (988, "8943238f2b5fc125b8a450f5aa332ec28b1f0f0afdb168a9110811c138e06f47"),
    ("lbm", 128, 0, "ref"):
        (3_295, "2f8b9634e0101dce1906017ea36c0f20db558f466ec7d65dc70662831650a6e6"),
    ("lbm", 128, 1, "train"):
        (988, "2462159044294e8ab91009a36c7475da4d24ffa87445dbe4fea123f3428a62f7"),
    ("lbm", 128, 1, "ref"):
        (3_295, "c00b5b9c355c280e2a0d83b266ad1bc461f668ccb73138086c4dfd898e909b79"),
    ("leela", 32, 0, "train"):
        (3_900, "765afc6b3992905626a28aaf61af8e2eb69e8c1c052d0d6722c030aa79c9c03d"),
    ("leela", 32, 0, "ref"):
        (13_000, "e3f3be909e93bd2e15735d5a086c0665c8a355f50a49ebc8320e08de3a847ed2"),
    ("leela", 32, 1, "train"):
        (3_900, "28d119495cdfd025d4cc794b1123f04932cfca645d4d5317d369e4179b960ccc"),
    ("leela", 32, 1, "ref"):
        (13_000, "50b3852fadf71e22566564b1fea24b8a77fa84791baca18e3c7e61eafe7cbd60"),
    ("leela", 128, 0, "train"):
        (975, "23f7423514ec56eef175ca0375cf37931313e95575923bce7c1acf9aaad98f61"),
    ("leela", 128, 0, "ref"):
        (3_250, "0e6adf5e7986133fae080a7889141146e5ae03edb7a81998f1145160b58bc4e9"),
    ("leela", 128, 1, "train"):
        (975, "a7fa96a2689d1b948513aeb76296347289293647b0cdc182ae8fe0d96beff8fc"),
    ("leela", 128, 1, "ref"):
        (3_250, "e4efe3149e2098a03a76258b7c1e3a7db2fd768c20d8b224c5aafcccfd2580ae"),
    ("mcf", 32, 0, "train"):
        (6_148, "0d194d266aca5bbde6a46370f5e1acb376021a1281abca76164a1bbce927f883"),
    ("mcf", 32, 0, "ref"):
        (20_148, "255e4ad4cf9a1d257f8a6c55a2794b6b5ec19ff350b6fa94b447064352a4dfca"),
    ("mcf", 32, 1, "train"):
        (6_148, "cca4f601667fb029ede2168eeefe5114fe62adf270d8255262c65d946d88b2bf"),
    ("mcf", 32, 1, "ref"):
        (20_148, "7103936136142b6b8bda06176128c6f3237e3c41bbea7ba1cf76d7533d065a66"),
    ("mcf", 128, 0, "train"):
        (1_563, "4afb94097bf7750ff7437030420743374729fd770201be57c69b5211f073903e"),
    ("mcf", 128, 0, "ref"):
        (5_064, "db6841a4eaa76bfaa8027ab28ec7286ea66cf3233f6418b4fdd33928f53b6162"),
    ("mcf", 128, 1, "train"):
        (1_563, "9fb33a357e3a19bbd30a2546637b7e4391f649197f149eb3e7ea929313107980"),
    ("mcf", 128, 1, "ref"):
        (5_064, "4b5d480cc68f57e785cc30471e886c16f1a62ba8711af2acbc0781f1c165a6aa"),
    ("mcf.2006", 32, 0, "train"):
        (6_000, "14378b7a87748ec4feeeda02e8a443eaafc5b8b1eefa99368c295bef6aca8f30"),
    ("mcf.2006", 32, 0, "ref"):
        (20_000, "5fbc9a6136a91057c1c6725faf2d31d40efc414a75ca16d069e702d9b832de6b"),
    ("mcf.2006", 32, 1, "train"):
        (6_000, "9c32072269a888be7e37c7c451229c7edf5896f0f3e2484ce5533530beea9279"),
    ("mcf.2006", 32, 1, "ref"):
        (20_000, "8fd5960dd7dcc63f00892fecd7d555cd1157bc101f6111dd89db1a9eef2f142f"),
    ("mcf.2006", 128, 0, "train"):
        (1_499, "a6ab7a86e505091d4f81baf07dd2af849d7cc09926eafea7c885e4958d0cef8b"),
    ("mcf.2006", 128, 0, "ref"):
        (5_000, "a04a2e0f98c980abf1fedf98e4acfb4500677ec147399af6b4269ccbf4dc27ee"),
    ("mcf.2006", 128, 1, "train"):
        (1_499, "66544e6420630b3820e3ccf0083deaa90025f99a02336f264f7d679bd7871b31"),
    ("mcf.2006", 128, 1, "ref"):
        (5_000, "d2a02fc74b74bd1336591a53690ee7e93f9edc88b5859f2c4fc0d2c5fb48325b"),
    ("microbenchmark", 32, 0, "train"):
        (8_192, "985cff0bbeb9fb44e16165e99bd1a60cee49c932ceab6d86d05b4ccdf3eeb1f4"),
    ("microbenchmark", 32, 0, "ref"):
        (16_384, "1784eaee31956dafcef56b8c3f0bed559630887add232293cead00180d6fb369"),
    ("microbenchmark", 32, 1, "train"):
        (8_192, "cb7586763468d597196029efdd9a642e4c834befc6a246aa7ec8cf6132d73a9d"),
    ("microbenchmark", 32, 1, "ref"):
        (16_384, "a5aa2a86047aa01f17b91a3a5f7adc4e10abdb777c4522c1f0aa2dbd19412e0a"),
    ("microbenchmark", 128, 0, "train"):
        (2_048, "969eab96b51e528e1f6fa6894113def0b0c11efdb3a4d8def377a16c07de51f5"),
    ("microbenchmark", 128, 0, "ref"):
        (4_096, "c75c1afa1e03d0d85d9ffa3e490abc31eb8ffa15f20e14e059e532c3e24c22ae"),
    ("microbenchmark", 128, 1, "train"):
        (2_048, "e56e5db6af5c8e1fd8c76c1f10125f972ad42c224ee344d235a39c9d413528d7"),
    ("microbenchmark", 128, 1, "ref"):
        (4_096, "647905f3f49052d048b5267724afa27e8a0ed5af9dbfdfeab5ec602c34d8de67"),
    ("mixed-blood", 32, 0, "train"):
        (4_235, "386744e73c5c501e905a46d74383ae5ebf57f21a86a7ef24968b3257f393336c"),
    ("mixed-blood", 32, 0, "ref"):
        (12_072, "e9a48f895c671e7c1dd3dac533e5c27411f364e573c461bdba818aac9467822a"),
    ("mixed-blood", 32, 1, "train"):
        (4_235, "e909d6e5e5ea0f59ac6750461e87fe9368fa2c5d7f3c5124387dad75b4acde56"),
    ("mixed-blood", 32, 1, "ref"):
        (12_072, "dddfca954acdd6dc9ed12bb507ddbd0c16423327b79d6e404d2a6711e6d64b75"),
    ("mixed-blood", 128, 0, "train"):
        (1_584, "9c98cc8eb6e6e26f3fb2a63180e0bfe1a93f8582d3bbc7f84c982bbc79a9d337"),
    ("mixed-blood", 128, 0, "ref"):
        (4_768, "95a6315f7743c8e7fe1a787d8eb18036b41621c3eb3c96a6add2746987a77068"),
    ("mixed-blood", 128, 1, "train"):
        (1_584, "2e5e3e55adfca160ede4a373dc79a841fc39da9407918a22a7e34184ff218834"),
    ("mixed-blood", 128, 1, "ref"):
        (4_768, "46956f725171005200b95b2bd4409922bd8cdf51eb61ba82cd8ca899bf4734dd"),
    ("nab", 32, 0, "train"):
        (828, "3134dc4bbeb78f78a7c4c7a7175d3e498645c952871c70ecf14e30cd06f34f3b"),
    ("nab", 32, 0, "ref"):
        (2_760, "d88fdc1a32689480b5344023d8d0c47a267553b67f2c02fd5ebe2b61f173d750"),
    ("nab", 32, 1, "train"):
        (828, "ff58fce434a0a352516f5e9338ab62c23807f08821ae50937cce46da4886a4b2"),
    ("nab", 32, 1, "ref"):
        (2_760, "923971c68120fd4be5d2756f399698a7955531f4c16dab10efc0e47ead4b749b"),
    ("nab", 128, 0, "train"):
        (690, "dcaee953bf3af774a6917866d828c6b3f3bf44579464c945c2991ffde355b8c9"),
    ("nab", 128, 0, "ref"):
        (2_304, "ef5f02406e04d52d40c4004655f1e66f264a9d001457e2ed5d6b3d189b9454ed"),
    ("nab", 128, 1, "train"):
        (690, "c413efd16db4a33078203161ea0beefeb60c0ad65fbcc5eb1d78a5490ad0e468"),
    ("nab", 128, 1, "ref"):
        (2_304, "5890121b55fa256e6394f2f498c6cc325fb91168a69b0977b8eed72d919e5625"),
    ("omnetpp", 32, 0, "train"):
        (5_100, "12bcba1657236bdee436096a1788c487b6f0658526e1348a650ed991634fdff8"),
    ("omnetpp", 32, 0, "ref"):
        (17_000, "7946270e47e1bdcbbd79b76b5d9a0cdebd55bd5a324f6b4b02ab8fe8df19a513"),
    ("omnetpp", 32, 1, "train"):
        (5_100, "1a355b7ea1ad6f0d4c35e2aed6558c4bd0f198bf4b93b70b87e8adbb046aa32c"),
    ("omnetpp", 32, 1, "ref"):
        (17_000, "e0a2de8d282e161be3a614883d1f110f424257519ceecd6270d53a2b94564bbb"),
    ("omnetpp", 128, 0, "train"):
        (1_275, "82413195ffaf5c8c94186b8a02003ede1b6a0337e1bfa1339fb87ebdb882667c"),
    ("omnetpp", 128, 0, "ref"):
        (4_250, "8dff742aed4a405fc1e4bd2631d7ae460a8d1d399f77ef945956b59bf3b15cac"),
    ("omnetpp", 128, 1, "train"):
        (1_275, "f5133c6ba9514727566a55b5f6944f8f75554992c58d1dfc50f61d9e77d71fc8"),
    ("omnetpp", 128, 1, "ref"):
        (4_250, "87fffafd6011e4b6a932633646f2b99b0a0690c96166554de61becd0784db95a"),
    ("roms", 32, 0, "train"):
        (5_400, "2468d1a3e83267028488a658f34bada8017a3b2b66cf6ae89368c0d781cc7276"),
    ("roms", 32, 0, "ref"):
        (18_000, "511e8902c501d076002c12ff5775f6b3c68a5478b8f3ee61b79fe8db533c7a67"),
    ("roms", 32, 1, "train"):
        (5_400, "ab83dc9bae5253e42c82ca651aa49fde47196d9fc4e582e239317aa97bddb583"),
    ("roms", 32, 1, "ref"):
        (18_000, "ca50cc4dac8f6a57bae36e6b3ce902de5acd9126f243f0fd6ad0bcf0818c5482"),
    ("roms", 128, 0, "train"):
        (1_350, "9ac47c6a05e33358b35233e79b726fc4e92aa1b00c9f508408e9d030b4532400"),
    ("roms", 128, 0, "ref"):
        (4_500, "4d4b7d5b66b07000fa493be9b92b5b3f20a2ecc641e38b635b60a040e7274a63"),
    ("roms", 128, 1, "train"):
        (1_350, "e5807855a43308fb5a6419840afcc494f33921e6b255cd8b3b185b93f10bbd35"),
    ("roms", 128, 1, "ref"):
        (4_500, "de79bf0626f0eab747de1e6d3d9038c84c8fc9a0f9b79b189fba78189f1edbe4"),
    ("wrf", 32, 0, "train"):
        (4_193, "ffa1df60606dee4b5a9724610f40d61aad7f777bd89107b96135d0c8b3dcae44"),
    ("wrf", 32, 0, "ref"):
        (13_943, "ce32754d1bf03ba9b2df2e1921d57193d96137c745ea8821156cf9c1fc09fe21"),
    ("wrf", 32, 1, "train"):
        (4_186, "92bab700453ac8fc6fcb488f663eac610cae9aab59b3620e27b2fa7daece0505"),
    ("wrf", 32, 1, "ref"):
        (13_919, "a0f140b0ef34055516a55d1cba366aac2e04e4717b604e6830d07f6a9f7ef861"),
    ("wrf", 128, 0, "train"):
        (1_050, "1d385308601fb0aa51b35ee2b4f9ad0703af2c9aabe4c86a0ba81132937d7ddd"),
    ("wrf", 128, 0, "ref"):
        (3_479, "74a33db1f3dad033ccddda9090e5ff246a6bd000e398aa79fb4c91162540282d"),
    ("wrf", 128, 1, "train"):
        (1_039, "a35f9f93bb2753c1619c8a5d91551e32369d799fcbd473224c4246b09e03be9c"),
    ("wrf", 128, 1, "ref"):
        (3_486, "044e42045a6216767ddb2cd271c4e89e4764e3855707e8b606e474864404db64"),
    ("xz", 32, 0, "train"):
        (5_146, "f30c4d0f546600330e714f7c9f209c35ac120c3dd6c160f71072dc0a02e51e64"),
    ("xz", 32, 0, "ref"):
        (12_146, "01c25bdd8f6f580e1825925edc5ad9d6de2dd63990fda020c3f8442a6ee36d80"),
    ("xz", 32, 1, "train"):
        (5_146, "4a7b81b9c380495247dded5984243430ffdf34a2c8dc499c70a8bc511e603f1d"),
    ("xz", 32, 1, "ref"):
        (12_146, "d65997988effb617fc561e508d024a61dd170a907bfa74394aa3109f6ae4574c"),
    ("xz", 128, 0, "train"):
        (1_733, "63d0c2d3ab71e3eefda7646700579471de531380d22e2036966649e2554c7aba"),
    ("xz", 128, 0, "ref"):
        (4_533, "cfdfd6d5fb1c2a658d2a1853e42ee5971e73e644b63dc054d6ba88543b13e4fd"),
    ("xz", 128, 1, "train"):
        (1_733, "01622205ea2b8ae67d39df9e3fa54d735c3d89ba5a1cdf37c5538a91d161e7ce"),
    ("xz", 128, 1, "ref"):
        (4_533, "d4ae3d107d258c91ec20fe99a9ce3d0c7e58d7e552cc1dad9c0a77b82bfb49e0"),
}

_EVENT = struct.Struct("<3q")


def trace_digest(trace):
    """``(events, sha256)`` of one trace's event stream."""
    digest = hashlib.sha256()
    events = 0
    for event in trace:
        digest.update(_EVENT.pack(*event))
        events += 1
    return events, digest.hexdigest()


def test_table_covers_every_registry_workload():
    assert set(PINNED_TRACES) == set(
        itertools.product(WORKLOAD_NAMES, SCALES, SEEDS, INPUT_SETS)
    )


@pytest.mark.parametrize(("name", "scale"), list(itertools.product(WORKLOAD_NAMES, SCALES)))
def test_trace_bytes_match_the_pins(name, scale):
    workload = build_workload(name, scale=scale)
    for seed, input_set in itertools.product(SEEDS, INPUT_SETS):
        trace = workload.trace(seed=seed, input_set=input_set)
        assert trace_digest(trace) == PINNED_TRACES[(name, scale, seed, input_set)], (
            f"{name} scale {scale} seed {seed} {input_set}"
        )
