int:16 base; int:16 jobs = base;

void Begin() {
  jobs = jobs + 1;
  SetTrue(BUSY);
}

void Finish() {
  SetFalse(BUSY);
}
