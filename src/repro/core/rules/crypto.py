"""A02:2021 Cryptographic Failures rules — weak hashes, ciphers, TLS, RNG.

Rule ids use the ``PIT-A02-##`` scheme.
"""

from __future__ import annotations

from repro.core.rules.base import PatchTemplate, rule
from repro.types import Confidence, Severity


def build_rules() -> list:
    """All A02 Cryptographic Failures rules, in catalog order."""
    return [
        # ---------------- Weak hash algorithms (CWE-327/328) ----------------
        rule(
            "PIT-A02-01",
            "CWE-328",
            "MD5 used as a cryptographic hash",
            r"hashlib\.md5\(",
            severity=Severity.HIGH,
            not_on_line=(r"usedforsecurity\s*=\s*False",),
            patch=PatchTemplate(
                replacement="hashlib.sha256(",
                imports=("import hashlib",),
                description="Replace MD5 with SHA-256",
            ),
        ),
        rule(
            "PIT-A02-02",
            "CWE-328",
            "SHA-1 used as a cryptographic hash",
            r"hashlib\.sha1\(",
            severity=Severity.HIGH,
            not_on_line=(r"usedforsecurity\s*=\s*False",),
            patch=PatchTemplate(
                replacement="hashlib.sha256(",
                imports=("import hashlib",),
                description="Replace SHA-1 with SHA-256",
            ),
        ),
        rule(
            "PIT-A02-03",
            "CWE-328",
            "Weak algorithm requested through hashlib.new()",
            r"hashlib\.new\(\s*(?P<q>['\"])(?:md5|md4|sha1?|sha)(?P=q)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"hashlib.new(\g<q>sha256\g<q>",
                imports=("import hashlib",),
                description="Request SHA-256 from hashlib.new",
            ),
        ),
        rule(
            "PIT-A02-04",
            "CWE-916",
            "Password hashed with a fast unsalted digest",
            r"hashlib\.(?:sha256|sha512|blake2b)\(\s*(?P<pwd>\w*(?:password|passwd|pwd)\w*(?:\.encode\(\s*(?:['\"][\w-]+['\"])?\s*\))?)\s*\)(?:\.hexdigest\(\))?",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
            patch=PatchTemplate(
                replacement=r"hashlib.pbkdf2_hmac('sha256', \g<pwd>, os.urandom(16), 310000)",
                imports=("import hashlib", "import os"),
                description="Derive the hash with salted PBKDF2",
            ),
        ),
        rule(
            "PIT-A02-05",
            "CWE-759",
            "crypt.crypt() used without a strong KDF",
            r"crypt\.crypt\(\s*(?P<pwd>[^(),\s][^(),]*|\s)(?:,[^()]+)?\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"hashlib.pbkdf2_hmac('sha256', str(\g<pwd>).encode(), os.urandom(16), 310000).hex()",
                imports=("import hashlib", "import os"),
                description="Replace crypt with salted PBKDF2",
            ),
        ),
        # ---------------- Broken ciphers and modes (CWE-327/329) ----------------
        rule(
            "PIT-A02-06",
            "CWE-327",
            "Broken symmetric cipher (DES/3DES/RC4/Blowfish)",
            r"\b(?:DES3?|ARC4|ARC2|Blowfish|XOR)\.new\(",
            severity=Severity.CRITICAL,
        ),
        rule(
            "PIT-A02-07",
            "CWE-327",
            "AES used in ECB mode",
            r"AES\.MODE_ECB",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement="AES.MODE_GCM",
                description="Use authenticated GCM mode instead of ECB",
            ),
        ),
        rule(
            "PIT-A02-08",
            "CWE-329",
            "Static initialization vector passed to a CBC cipher",
            r"AES\.new\(\s*(?P<key>[^,()]+),\s*AES\.MODE_CBC\s*,\s*(?P<iv>b?['\"][^'\"]*['\"])\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"AES.new(\g<key>, AES.MODE_CBC, os.urandom(16))",
                imports=("import os",),
                description="Generate a fresh random IV per encryption",
            ),
        ),
        # ---------------- Weak randomness (CWE-330/338/335) ----------------
        rule(
            "PIT-A02-09",
            "CWE-338",
            "random.choice() used to build a security token",
            r"random\.choice\(",
            severity=Severity.MEDIUM,
            not_in_file=(r"import\s+secrets",),
            patch=PatchTemplate(
                replacement="secrets.choice(",
                imports=("import secrets",),
                description="Draw characters from the secrets module",
            ),
        ),
        rule(
            "PIT-A02-10",
            "CWE-330",
            "Non-cryptographic PRNG used for secrets",
            r"random\.(?:random|randint|randrange|getrandbits|randbytes)\(",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
            not_in_file=(r"import\s+secrets",),
            not_on_line=(r"#\s*simulation|#\s*sampling",),
        ),
        rule(
            "PIT-A02-11",
            "CWE-335",
            "PRNG seeded with a constant",
            r"random\.seed\(\s*(?:\d+|['\"][^'\"]*['\"])\s*\)",
            severity=Severity.MEDIUM,
            patch=PatchTemplate(
                replacement="random.seed()",
                description="Seed from the operating system entropy pool",
            ),
        ),
        # ---------------- TLS misuse (CWE-295/326/319) ----------------
        rule(
            "PIT-A02-12",
            "CWE-295",
            "requests called with certificate verification disabled",
            r"verify\s*=\s*False",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement="verify=True",
                description="Re-enable TLS certificate verification",
            ),
        ),
        rule(
            "PIT-A02-13",
            "CWE-295",
            "Unverified SSL context created",
            r"ssl\._create_unverified_context\(\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement="ssl.create_default_context()",
                imports=("import ssl",),
                description="Use the verifying default SSL context",
            ),
        ),
        rule(
            "PIT-A02-14",
            "CWE-295",
            "Hostname checking disabled on an SSL context",
            r"\.check_hostname\s*=\s*False",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=".check_hostname = True",
                description="Re-enable hostname verification",
            ),
        ),
        rule(
            "PIT-A02-15",
            "CWE-326",
            "Obsolete SSL/TLS protocol version selected",
            r"ssl\.PROTOCOL_(?:SSLv2|SSLv3|SSLv23|TLSv1(?:_1)?)\b",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement="ssl.PROTOCOL_TLS_CLIENT",
                imports=("import ssl",),
                description="Negotiate modern TLS via PROTOCOL_TLS_CLIENT",
            ),
        ),
        rule(
            "PIT-A02-16",
            "CWE-319",
            "Credentials posted over cleartext HTTP",
            r"requests\.(?:post|put)\(\s*f?(?P<q>['\"])http://(?:(?!(?P=q)).)*(?P=q)\s*,[^)]*(?:password|token|secret|credential)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=_https_upgrade,
                description="Switch the endpoint to HTTPS",
            ),
        ),
        rule(
            "PIT-A02-17",
            "CWE-321",
            "Hard-coded cryptographic key material",
            r"(?P<name>\b\w*(?:aes_key|encryption_key|signing_key|private_key|crypto_key)\w*)\s*=\s*b?['\"][^'\"]{8,}['\"]",
            severity=Severity.HIGH,
            not_on_line=(r"os\.environ|getenv|urandom|token_bytes",),
            patch=PatchTemplate(
                replacement=r'\g<name> = os.environ["\g<name>".upper()].encode()',
                imports=("import os",),
                description="Load key material from the environment",
            ),
        ),
        rule(
            "PIT-A02-18",
            "CWE-261",
            "Password protected only by reversible base64 encoding",
            r"base64\.b64encode\(\s*\w*(?:password|passwd|pwd)\w*",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
        ),
    ]


def _https_upgrade(match):
    """Rewrite the matched call's URL scheme from http:// to https://."""
    return match.group(0).replace("http://", "https://", 1), ()
