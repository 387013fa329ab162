package lz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"ccx/internal/datagen"
)

// digestInput is one entry of the pinned compression corpus.
type digestInput struct {
	name string
	data []byte
}

// digestCorpus is the input set whose Compress output is pinned by SHA-256:
// every datagen class at edge and block sizes, plus degenerate inputs (all
// zero, period 2) that drive the longest hash chains and maximal matches.
func digestCorpus() []digestInput {
	sizes := []int{0, 1, 2, 3, 4, 8, 100, 4096, 5000, 64 << 10, 128 << 10, 300 << 10}
	kinds := []struct {
		name string
		gen  func(n int) []byte
	}{
		{"ois", func(n int) []byte { return datagen.OISTransactions(n, 0.7, 1) }},
		{"xml", func(n int) []byte { return datagen.XMLDocuments(n, 2) }},
		{"low16", func(n int) []byte { return datagen.LowEntropy(n, 16, 3) }},
		{"low2", func(n int) []byte { return datagen.LowEntropy(n, 2, 4) }},
		{"random", func(n int) []byte { return datagen.Random(n, 5) }},
		{"zero", func(n int) []byte { return make([]byte, n) }},
		{"period2", func(n int) []byte { return bytes.Repeat([]byte{0x5a, 0xc3}, n/2+1)[:n] }},
	}
	var out []digestInput
	for _, k := range kinds {
		for _, n := range sizes {
			out = append(out, digestInput{fmt.Sprintf("%s/%d", k.name, n), k.gen(n)})
		}
	}
	return out
}

// TestCompressDigests pins the exact bytes Compress emits for the corpus.
// The digests were generated from the byte-at-a-time match finder that the
// word-at-a-time one replaced; any change to hashing, chain order, the
// lazy-match rule or the symbol tables shows up here as a mismatch.
func TestCompressDigests(t *testing.T) {
	for _, in := range digestCorpus() {
		out, err := Compress(in.data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sum := sha256.Sum256(out)
		got := hex.EncodeToString(sum[:])
		want, ok := compressDigests[in.name]
		if !ok {
			t.Errorf("%q: %q,", in.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: Compress digest %s, want %s (len %d)", in.name, got, want, len(out))
		}
	}
}

var compressDigests = map[string]string{
	"ois/0":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"ois/1":          "0eab3cdfeacad203643c55defcb561e3c9cfdf03f7b04e56d2c3767e365b023f",
	"ois/2":          "8adf38998654e10cb28ce3606e2b1e3fca2a6ff6c77b47e8181f200aeb895ed7",
	"ois/3":          "a36f529348886d5c35e2a725d395a7979679dafdecfb111eda2c9b87f1a96f6b",
	"ois/4":          "1f076f25fb2525f0dcfc5a2bf3a23b748fff9e6946347a8122fb7ea55c24fe71",
	"ois/8":          "90fc5550f6539e6b6450aee61f041b7eb5443edf9b581fd9bd0c3138c1ca5a72",
	"ois/100":        "a004a80972bdf838a5abde2a7c556b33969af397225a57e56b495ad470669170",
	"ois/4096":       "7a4a92f6380b20eef84046b1f0f84c54c209492d186f68cd168826b13244b855",
	"ois/5000":       "69beb77b11549588b00252b676f1558f439b38ab2e11d58b5dbabb271aeaa0fc",
	"ois/65536":      "31db471a644f037a2192967ad1cecaf625e4a4984bbcebc43b4dd385a3fa525f",
	"ois/131072":     "b8b25c2f84d8408e200ad83f92ae317c2ab667942313a54afc546a8f96554427",
	"ois/307200":     "49690e9db09e9797a958fe8c4eef848130d23772c168b159bc1eb30d7b9c0398",
	"xml/0":          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"xml/1":          "8562e626cd3e652ebd5d06ea8bdc1626659e1c7b503bc5e5ded0a16ff934db41",
	"xml/2":          "3f61419ea3824b2f2e9842c41127c43eae9aa3b9073a8e2f6c943bddc1b13761",
	"xml/3":          "3e539f4f0bc14cba4fcf6200372e7a963fa5da84be498ca23e37cc7653483ec7",
	"xml/4":          "140c873dd27e7927e0eeadc65b92964aaaf824398f03d88e83d92853c3186ddd",
	"xml/8":          "584d2d10ba48d2cb7aa382e0f9ccd861fb84df54f27009421f67ff71fd0f823e",
	"xml/100":        "e3c718f95731ae1c87a52a5e5c4bc3adc3150516f26ccca673a102afb22cfaa0",
	"xml/4096":       "e75af3abb7b98e2649169eb4248c159813ea657b3c2b4cfb150d84981511253b",
	"xml/5000":       "5f1b1c707c511b3b869df04f735098992f52fe91f422437dd37ab1267f01a9aa",
	"xml/65536":      "facdfa025a7dee0fc496d255ce93349be031c8e9bec5676d302c8273d1de8945",
	"xml/131072":     "3cf24cb9f63c9fb2c69f2c6b42743b2023ace5569a39c31b8f50a900c94ee517",
	"xml/307200":     "0e46cd5481a8ca3fb7db8f75710da19d5fde9641b500ba650df13b76b2aa89b2",
	"low16/0":        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"low16/1":        "a1c0e546c1fb0ecf3f54743fc0a74b5ec0e3ca550f8208c27e9a4299a36589d4",
	"low16/2":        "7892a132f3fb7aaaec9e32155e5dba2817a4315c226369a359e7de55c5f8c409",
	"low16/3":        "7892a132f3fb7aaaec9e32155e5dba2817a4315c226369a359e7de55c5f8c409",
	"low16/4":        "7626f44a3b4ce7c69955485459e840cfd96b91febeb0cd13e9e5b8fb13fcf2b4",
	"low16/8":        "fd352451d10b3982ebe2a6c15e88d815df227a4518bce5d714f65b65ec5a6376",
	"low16/100":      "b1d64cf8f7b94bffab9a544a20004f898941cd1c202f4f5b086aa9de95a8834c",
	"low16/4096":     "89f1a60b76b3d17dd3f042780a3fea5c4b686bbeec83c41bd7db3e6913e86329",
	"low16/5000":     "ffd6fea4b0d724d49049160bf81192c1ae621fb85739ad9a89b22b466ac91ae2",
	"low16/65536":    "73d3ecafe79ab4a822e6905f09ca2181f46b10e801b7af49f1de5d4085d8d667",
	"low16/131072":   "73e26118f43a2e73621d020e2d295e36d4d6293e2ea6f6b5d2a498c0585ad51b",
	"low16/307200":   "6e5eb98c314509a079acc166b74fd7f9825a845b776493c313a19d3bec120077",
	"low2/0":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"low2/1":         "a5da5a9387531fabad8e9c6d646c5759fdb7c42a4db121e4a3e3a8d0b3af7c19",
	"low2/2":         "f9ead6acb5e463f03ffbedd841dbb052c567f2e6d53c214bde070967a4f59b12",
	"low2/3":         "3248af57b2f7ab2628decd005e52c0522ff56021cef080cf40291f6eb665e29c",
	"low2/4":         "9c16fb645404fe1f9074049909e9c2d7523f66138888721c9bb595d497a179ff",
	"low2/8":         "e0d6aa149991a1b9d6caaaad39fb5fb3fc03a8570a82622e6db7084dbd70bced",
	"low2/100":       "f975978b441cf287b88846bdea0374b7982d46db4b4a3bf849c8d52585b24316",
	"low2/4096":      "e7070a479adcc220ced115dd458864957eaaaada44456d6ad7a5a681cbfa0fa6",
	"low2/5000":      "9621e42468c653cd88b9dc46c1895f61266553e23f7281586e2468a33678eade",
	"low2/65536":     "b30925a1197ff3c5458112dc39dcefe5c85db0969c3638d6f799bfcd55c79a9d",
	"low2/131072":    "501adc9715cdb46d2cc5f1fce65febed7c4ce551ca7b5b0ebd5ea04635828db5",
	"low2/307200":    "a56bfcb19f982528eefd9e0e5adf3b983635750506283ff8b12273455b922cc1",
	"random/0":       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"random/1":       "981046e594c7161cf374bce2bdc1616556a3d55d518344c51df1fdc435776fff",
	"random/2":       "782c90d0f03bc7b13970edb78ad730090641511cf013e0a92d5c9d5f10a0e53c",
	"random/3":       "0ea30316a08f4ccd31c7437ad3036b0ca7c870a9e61dd3f5ab711fdc76e5195d",
	"random/4":       "6885890535ae1bb8e498cdf13b02030f96da099d7ca7cbf7cdce722ef0ef03ac",
	"random/8":       "ec830b09ace3061f473a1569ea8b75d6b53d568ac50e5ace23eb9c4b034aff50",
	"random/100":     "e5f0cf4ee169662a3d97d47c6335705deb149d890382f0a5baa0d8eda83a5735",
	"random/4096":    "a9e02015c7a277545ebc6c67adb7acbca60403cab1a4db18c90653a50ad34691",
	"random/5000":    "368f7282c88a1d0c46a1606abc21236034ff9ae90c507d9d154b609c35c399fb",
	"random/65536":   "dd44abeef1bf5b4ab490a4be58b5bfce91214d649a09e6d873678a3f538ec66c",
	"random/131072":  "ee757bcf1f303e72ca9b549ab83cc5bfa44931242263129ef74bdd8c0041130d",
	"random/307200":  "8ceaded8e8b1580d052cf0343aec78f260254744bcff58d7bd80534f51c04fd9",
	"zero/0":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"zero/1":         "a1c0e546c1fb0ecf3f54743fc0a74b5ec0e3ca550f8208c27e9a4299a36589d4",
	"zero/2":         "a1c0e546c1fb0ecf3f54743fc0a74b5ec0e3ca550f8208c27e9a4299a36589d4",
	"zero/3":         "a1c0e546c1fb0ecf3f54743fc0a74b5ec0e3ca550f8208c27e9a4299a36589d4",
	"zero/4":         "4bac30b20a86554861cf52b4365ad4cc480e34c2c7ba356a74d6e96db7e20cca",
	"zero/8":         "ee54826b75d4a806fbbbffb50e1edfab62a3928ec94d9384bbb208ffa73844be",
	"zero/100":       "a31270d034551422f90800a0413aaaf526c55c416f530984c0b6e4e15f7fbae0",
	"zero/4096":      "96c0c0f4f19bd619ccdf90b01a10d62f63f5246243bb54d8859da731bd0ad462",
	"zero/5000":      "0fb48ad2963d39f712d5efc550ba13f21081d2cf7a695813832c10cc84cbb268",
	"zero/65536":     "9f75d33ebc34e6e02779d9ff31b1010b750857658f8946ed1f849d855c187b36",
	"zero/131072":    "2bc0ac4a93185cab7a4380324deaeda908d898bd6fbdbc4518afed3a880332c5",
	"zero/307200":    "1a2ae8c9f0dcd0424d017714914f1e75f5a0baa6f7377fd1f3b198d9d2605cfb",
	"period2/0":      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"period2/1":      "7242a8c945df609802a19108d21df4ab2a7c7b6c24ebc47b36b1fb34a9bac3b4",
	"period2/2":      "bbe3c6f0f39bd3f7067a204b8115220f65463bd1ce05d3eefac7059d30d4c456",
	"period2/3":      "bbe3c6f0f39bd3f7067a204b8115220f65463bd1ce05d3eefac7059d30d4c456",
	"period2/4":      "16e5dd529f1092a04078336f5133f8d0ab929e0b66317225871179239cc7e82e",
	"period2/8":      "7d8085b4fc4984c9d702eb466a75625889037622de7b688fd5f34a5dd355521e",
	"period2/100":    "a4f890217e83e2612bcb450534856f5607368534532949c1651064ea7c0090d4",
	"period2/4096":   "a7931b4fcd32dee3b271e1fdd61f53d922d7da84a26d94f7caee68e1884c8c80",
	"period2/5000":   "0df7aefe3be718b3333d6ad1016b3d7dd489902730510fac5466be8f610d066c",
	"period2/65536":  "83611d22447dc9a71c51078a65d79f1c48015437beca9e856e7a657bfaf25360",
	"period2/131072": "a1895e326d4b686956cad77554c4422c33d147ce3ffac248f17dc4183b073c73",
	"period2/307200": "d1228b37fcb52949267ce14143b4510930964969eb71de2f7054bf78432dc68b",
}

// TestCompressConcurrent runs Compress from several goroutines at once over
// inputs of different sizes: each call must get its own pooled match finder
// and return exactly the bytes a lone call returns. Inputs stop at 64 KB
// to keep the test quick under the race detector.
func TestCompressConcurrent(t *testing.T) {
	var corpus []digestInput
	for _, in := range digestCorpus() {
		if len(in.data) <= 64<<10 {
			corpus = append(corpus, in)
		}
	}
	want := make([][]byte, len(corpus))
	for i, in := range corpus {
		out, err := Compress(in.data)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range corpus {
				i := (k + g*7) % len(corpus)
				out, err := Compress(corpus[i].data)
				if err != nil || !bytes.Equal(out, want[i]) {
					t.Errorf("goroutine %d: %s: concurrent Compress differs (err %v)", g, corpus[i].name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
