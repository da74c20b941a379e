int:16 jobs; int:16 m[2][2];

void Begin() {
  m[jobs][jobs] = 1;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
